open Ddlock_graph
open Ddlock_model

type t = Bitset.t array

let initial sys =
  Array.init (System.size sys) (fun i ->
      Transaction.empty_prefix (System.txn sys i))

let final sys =
  Array.init (System.size sys) (fun i ->
      Transaction.full_prefix (System.txn sys i))

let copy st = Array.map Bitset.copy st
let equal a b = Array.length a = Array.length b && Array.for_all2 Bitset.equal a b

let hash st =
  let h = ref (Array.length st) in
  Array.iter (fun s -> h := (!h * 486187739) + Bitset.hash s) st;
  !h land max_int

let key st =
  let buf = Buffer.create 64 in
  Array.iter
    (fun s ->
      Bitset.iter (fun i -> Buffer.add_string buf (string_of_int i ^ ",")) s;
      Buffer.add_char buf '|')
    st;
  Buffer.contents buf

let is_valid sys st =
  Array.length st = System.size sys
  && Array.for_all2
       (fun tx p -> Transaction.is_prefix tx p)
       (System.txns sys) st

let holder sys st x =
  let n = System.size sys in
  let rec go i =
    if i >= n then None
    else
      let tx = System.txn sys i in
      if Transaction.accesses tx x then
        let l = Transaction.lock_node_exn tx x
        and u = Transaction.unlock_node_exn tx x in
        if Bitset.mem st.(i) l && not (Bitset.mem st.(i) u) then Some i
        else go (i + 1)
      else go (i + 1)
  in
  go 0

let held sys st i = Transaction.held_in_prefix (System.txn sys i) st.(i)

let finished sys st i =
  Bitset.cardinal st.(i) = Transaction.node_count (System.txn sys i)

let all_finished sys st =
  let n = System.size sys in
  let rec go i = i >= n || (finished sys st i && go (i + 1)) in
  go 0

let enabled sys st =
  let n = System.size sys in
  let steps = ref [] in
  for i = n - 1 downto 0 do
    let tx = System.txn sys i in
    List.iter
      (fun v ->
        let nd = Transaction.node tx v in
        let ok =
          match nd.Node.op with
          | Node.Unlock -> true
          | Node.Lock -> (
              match holder sys st nd.Node.entity with
              | None -> true
              | Some j -> j = i)
        in
        if ok then steps := Step.v i v :: !steps)
      (Transaction.minimal_remaining tx st.(i))
  done;
  !steps

(* Only the stepping transaction's row is copied; the others are shared
   with [st], which is safe because no state is mutated once built. *)
let apply st (step : Step.t) =
  let st' = Array.copy st in
  let row = Bitset.copy st.(step.Step.txn) in
  Bitset.set row step.Step.node;
  st'.(step.Step.txn) <- row;
  st'

let is_deadlock sys st =
  let n = System.size sys in
  let some_unfinished = ref false in
  let ok = ref true in
  for i = 0 to n - 1 do
    if not (finished sys st i) then begin
      some_unfinished := true;
      let tx = System.txn sys i in
      List.iter
        (fun v ->
          let nd = Transaction.node tx v in
          match nd.Node.op with
          | Node.Unlock -> ok := false
          | Node.Lock -> (
              match holder sys st nd.Node.entity with
              | Some j when j <> i -> ()
              | _ -> ok := false))
        (Transaction.minimal_remaining tx st.(i))
    end
  done;
  !some_unfinished && !ok

let size st = Array.fold_left (fun acc s -> acc + Bitset.cardinal s) 0 st

let pp sys ppf st =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i p ->
      let tx = System.txn sys i in
      Format.fprintf ppf "T%d: {" (i + 1);
      Bitset.iter
        (fun v ->
          Format.fprintf ppf " %s"
            (Node.to_string (System.db sys) (Transaction.node tx v)))
        p;
      Format.fprintf ppf " }@,")
    st;
  Format.fprintf ppf "@]"
