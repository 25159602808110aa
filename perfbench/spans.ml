type span = { id : int; parent : int; op : int; name : string; t0 : int; t1 : int }

let now = Ddlock_obs.Clock.now_ns
let enabled = ref false
let lock = Mutex.create ()
let store : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let add ~op name ~t0 ~t1 =
  Mutex.lock lock;
  let id = !next_id in
  incr next_id;
  store := { id; parent = -1; op; name; t0; t1 } :: !store;
  Mutex.unlock lock

let within ~op name f =
  if not !enabled then f ()
  else begin
    Mutex.lock lock;
    let id = !next_id in
    incr next_id;
    Mutex.unlock lock;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        stack := List.tl !stack;
        Mutex.lock lock;
        store := { id; parent; op; name; t0; t1 } :: !store;
        Mutex.unlock lock)
      f
  end

let recorded () = List.rev !store

let clear () =
  Mutex.lock lock;
  store := [];
  stack := [];
  Mutex.unlock lock

(* Length of the union of the child intervals, clipped to [lo, hi). *)
let covered ~lo ~hi children =
  let iv =
    List.filter_map
      (fun c ->
        let a = max lo c.t0 and b = min hi c.t1 in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, max cb b))
        | Some (ca, cb) -> (acc + (cb - ca), Some (a, b)))
      (0, None) iv
  in
  match last with Some (a, b) -> total + (b - a) | None -> total

let self_times spans =
  let kids = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent s) spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = s.t1 - s.t0 - covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all kids s.id) in
      let n, t = Option.value (Hashtbl.find_opt acc s.name) ~default:(0, 0) in
      Hashtbl.replace acc s.name (n + 1, t + self))
    spans;
  Hashtbl.fold (fun name (n, t) l -> (name, n, t) :: l) acc []
  |> List.sort compare

let chrome_json spans =
  Ddlock_obs.Trace.chrome_json
    (List.map
       (fun s ->
         {
           Ddlock_obs.Trace.name = s.name;
           cat = "perfbench";
           ts_ns = s.t0;
           dur_ns = s.t1 - s.t0;
           tid = 0;
           req = s.op;
           args = [ ("id", string_of_int s.id); ("parent", string_of_int s.parent) ];
         })
       spans)
