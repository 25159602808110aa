(* Seeded inputs.  Every system reaches the program as source text in
   the `ddlock analyze` format, rendered exactly as `ddlock gen` would
   print it. *)

open Ddlock
module System = Model.System

let named sys =
  List.mapi
    (fun i t -> (Printf.sprintf "T%d" (i + 1), t))
    (Array.to_list (System.txns sys))

let source sys = Model.Parser.to_source (System.db sys) (named sys)
let parse src = Model.Parser.system_of_result (Model.Parser.parse_exn src)

(* `ddlock gen zipf -n ENTITIES --txns TXNS --theta THETA` *)
let zipf rng ~txns ~entities ~theta =
  source
    (Workload.Gentx.zipf_system rng ~sites:(max 1 (entities / 2)) ~entities ~txns
       ~theta)

(* `ddlock gen tpcc --warehouses 2 --txns 4` (default theta 1.2) *)
let tpcc rng = source (Workload.Gentx.tpcc_system rng ~warehouses:2 ~txns:4 ~theta:1.2)

(* `ddlock gen replicated --sites 3 --replication 2 -n 6 --txns 4` *)
let replicated rng =
  let rep = Workload.Gentx.replicated_db ~sites:3 ~entities:6 ~replication:2 in
  source (Workload.Gentx.replicated_system rng rep ~txns:4 ~entities_per_txn:2)

let philosophers k = source (Workload.Gentx.dining_philosophers k)

(* `ddlock gen ring -n K --copies C` *)
let ring_copies k c =
  let t = Workload.Gentx.guard_ring k in
  Model.Parser.to_source (Model.Transaction.db t)
    (List.init c (fun i -> (Printf.sprintf "T_%d" (i + 1), t)))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done
