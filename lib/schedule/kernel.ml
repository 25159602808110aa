open Ddlock_graph
open Ddlock_model

exception Too_large of int

let default_cap = 2_000_000

(* Telemetry.  Every search bumps the same counters at state-insertion
   time.  Under the FIFO policy the insertion sequence is fixed, so the
   totals do not depend on [jobs].  All recording is a no-op unless
   Ddlock_obs.Control is switched on. *)
module Obs = struct
  module T = Ddlock_obs.Trace
  module M = Ddlock_obs.Metrics

  let states_visited = M.Counter.make "explore.states_visited"
  let deadlock_witnesses = M.Counter.make "explore.deadlock_witnesses"
  let searches = M.Counter.make "explore.searches"
  let visit () = M.Counter.incr states_visited

  (* Symmetry reduction: [canon_hits] counts inserted states whose
     generating successor differed from its orbit representative;
     [orbit_gauge] records the largest automorphism group order seen. *)
  let canon_hits = M.Counter.make "canon.hits"
  let orbit_gauge = M.Gauge.make "canon.orbit_size"
  let hit moved = if moved then M.Counter.incr canon_hits

  (* Partial-order reduction, bumped once per work-item expansion:
     [por_pruned] sums the enabled transitions not expanded,
     [por_persistent_size] the persistent-set sizes. *)
  let por_pruned = M.Counter.make "por.pruned"
  let por_persistent_size = M.Counter.make "por.persistent_size"

  let por_expand ~enabled ~persistent ~selected =
    M.Counter.add por_pruned (enabled - selected);
    M.Counter.add por_persistent_size persistent

  (* Work-stealing machinery.  These describe racy scheduling decisions
     (who stole what, which arrival deduplicated), so unlike every other
     counter they are not reproducible; the FIFO policy never touches
     them. *)
  let steals = M.Counter.make "par.steals"
  let intern_hits = M.Counter.make "par.intern_hits"
  let arena_reuse = M.Counter.make "par.arena_reuse"
end

(* ------------------------ successor functions ---------------------- *)

(* A successor function over nodes of type ['n]: [expand node sleep
   emit] calls [emit step node' moved sleep'] once per successor, in the
   canonical ({!State.enabled}) order.  [moved] says whether symmetry
   canonicalization changed the successor (telemetry only); [sleep] and
   [sleep'] are partial-order-reduction sleep sets, [[]] elsewhere.
   With [covering] set, re-arriving at a stored node with a sleep set
   that does not cover the stored one shrinks the stored set to the
   intersection and re-expands the node (Godefroid's covering rule), so
   sleeping never suppresses the only path into a deadlock. *)
type 'n succ = {
  hash : 'n -> int;
  equal : 'n -> 'n -> bool;
  expand : 'n -> Step.t list -> (Step.t -> 'n -> bool -> Step.t list -> unit) -> unit;
  covering : bool;
}

let plain sys =
  {
    hash = State.hash;
    equal = State.equal;
    covering = false;
    expand =
      (fun st _ emit ->
        List.iter (fun s -> emit s (State.apply st s) false []) (State.enabled sys st));
  }

(* Successors are orbit representatives.  [moved] costs a state
   comparison, so it is only computed while telemetry is on. *)
let symmetric c sys =
  {
    (plain sys) with
    expand =
      (fun rep _ emit ->
        let telemetry = Ddlock_obs.Control.is_on () in
        List.iter
          (fun s ->
            let raw = State.apply rep s in
            let rep' = fst (Canon.normalize c raw) in
            emit s rep' (telemetry && not (State.equal raw rep')) [])
          (State.enabled sys rep));
  }

(* Persistent/sleep-set selective search ({!Indep}): the stored sleep
   sets only shrink, which bounds re-expansions, and the visited set is
   keyed by state alone, so the reduced search never holds more states
   than the plain one.  A [found] predicate must be implied by deadlock:
   the reduction preserves reachability of deadlock states, not of
   arbitrary targets. *)
let reduced canon sys =
  {
    (plain sys) with
    covering = true;
    expand =
      (fun st sleep emit ->
        let exp = Indep.expand ?canon sys st ~sleep in
        Obs.por_expand ~enabled:exp.Indep.enabled_count
          ~persistent:exp.Indep.persistent_count
          ~selected:(List.length exp.Indep.succs);
        List.iter
          (fun { Indep.step; succ; moved; sleep } -> emit step succ moved sleep)
          exp.Indep.succs);
  }

(* The Lemma-1 extended node: a prefix vector plus the accumulated
   D-arcs, a monotone function of the executed lock steps and their
   order.  Arc [a -> b] is bit [a * n + b] of an n²-bit set; a step that
   adds no arc shares its parent's set. *)
module Lemma1 = struct
  type node = { st : State.t; arcs : Bitset.t }

  let initial sys =
    let n = System.size sys in
    { st = State.initial sys; arcs = Bitset.create (n * n) }

  let d_arcs_of_step sys st (step : Step.t) =
    let tx = System.txn sys step.txn in
    let nd = Transaction.node tx step.node in
    match nd.Node.op with
    | Node.Unlock -> []
    | Node.Lock ->
        Dgraph.arcs_added_by_lock sys
          ~locked_before:(fun k ->
            match Transaction.lock_node (System.txn sys k) nd.entity with
            | None -> false
            | Some l -> Bitset.mem st.(k) l)
          step.txn nd.entity

  let succ sys =
    let n = System.size sys in
    {
      hash = (fun x -> (State.hash x.st * 65599) + Bitset.hash x.arcs);
      equal = (fun a b -> State.equal a.st b.st && Bitset.equal a.arcs b.arcs);
      covering = false;
      expand =
        (fun x _ emit ->
          List.iter
            (fun step ->
              let arcs =
                match d_arcs_of_step sys x.st step with
                | [] -> x.arcs
                | added ->
                    let a = Bitset.copy x.arcs in
                    List.iter (fun (i, j) -> Bitset.set a ((i * n) + j)) added;
                    a
              in
              emit step { st = State.apply x.st step; arcs } false [])
            (State.enabled sys x.st));
    }

  let cycle sys x =
    let n = System.size sys in
    Topo.find_cycle
      (Digraph.create n
         (List.map (fun k -> (k / n, k mod n)) (Bitset.to_list x.arcs)))
end

(* --------------------------- visited set --------------------------- *)

(* One visited set for both policies: shards of intern tables
   ({!Intern}), each with packed per-id parent, via-step and sleep-set
   arrays.  A node's global id is [lid * shards + shard]; the FIFO
   policy uses a single shard, so its global ids are the dense BFS
   insertion ranks.  Work-stealing workers take a shard's mutex around
   every access; the FIFO policy never does. *)
type 'n shard = {
  lock : Mutex.t;
  ids : 'n Intern.t;
  mutable parent : int array;  (* global id of the parent; -1 at the root *)
  mutable via : Step.t array;
  mutable sleep : Step.t list array;  (* stored sleep sets (covering rule) *)
}

type 'n visited = { shards : 'n shard array; succ : 'n succ }

let no_step = Step.v (-1) (-1)

let visited_create succ n =
  {
    succ;
    shards =
      Array.init n (fun _ ->
          {
            lock = Mutex.create ();
            ids = Intern.create ~equal:succ.equal ~hash:succ.hash ();
            parent = [||];
            via = [||];
            sleep = [||];
          });
  }

let shard_of v node =
  let n = Array.length v.shards in
  if n = 1 then 0 else v.succ.hash node land max_int mod n

let gid v ~shard lid = (lid * Array.length v.shards) + shard

(* Store a fresh id's parent, via-step and sleep set, growing the packed
   arrays by doubling. *)
let record sh lid ~parent ~via ~sleep =
  let cap = Array.length sh.parent in
  if lid >= cap then begin
    let ncap = max 16 (max (lid + 1) (2 * cap)) in
    let grow a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    sh.parent <- grow sh.parent (-1);
    sh.via <- grow sh.via no_step;
    sh.sleep <- grow sh.sleep []
  end;
  sh.parent.(lid) <- parent;
  sh.via.(lid) <- via;
  sh.sleep.(lid) <- sleep

let node v g =
  let n = Array.length v.shards in
  Intern.get v.shards.(g mod n).ids (g / n)

(* Steps from the root to [g], rebuilt from the packed parent chains. *)
let path v g =
  let n = Array.length v.shards in
  let rec go g acc =
    let sh = v.shards.(g mod n) and lid = g / n in
    let p = sh.parent.(lid) in
    if p < 0 then acc else go p (sh.via.(lid) :: acc)
  in
  go g []

let find v x =
  let s = shard_of v x in
  Option.map (gid v ~shard:s) (Intern.find v.shards.(s).ids x)

let count v = Array.fold_left (fun a sh -> a + Intern.count sh.ids) 0 v.shards

(* Shard-major, id-minor: BFS insertion order under the FIFO policy. *)
let nodes v =
  Seq.concat_map
    (fun sh -> Seq.init (Intern.count sh.ids) (Intern.get sh.ids))
    (Array.to_seq v.shards)

(* ------------------------- frontier policies ----------------------- *)

type policy = Fifo | Work_stealing of int

(* Exact cap: a search may hold at most [max_states] nodes; discovering
   one more raises [Too_large] with the number already held.  The check
   covers the initial node too.  The cancellation poll rides the same
   path: an installed deadline bounds the search in time exactly as
   [max_states] bounds it in space. *)
let check_room held max_states =
  Ddlock_obs.Cancel.poll ();
  if held >= max_states then raise (Too_large held)

(* Sequential BFS: work items leave the queue in insertion order, so
   ids, parents, the cap and the first [found] node are those of the
   textbook BFS.  [restrict] filters successors before dedup; [found]
   is evaluated once per node, at insertion.  Returns the first [found]
   node's global id, if any. *)
let fifo ~max_states ~restrict ~found v init =
  let sh = v.shards.(0) in
  check_room 0 max_states;
  ignore (Intern.intern sh.ids init);
  record sh 0 ~parent:(-1) ~via:no_step ~sleep:[];
  Obs.visit ();
  if found init then Some 0
  else begin
    let covering = v.succ.covering in
    let q = Queue.create () in
    Queue.push (0, []) q;
    let witness = ref None in
    (try
       while not (Queue.is_empty q) do
         let id, sleep = Queue.pop q in
         v.succ.expand (Intern.get sh.ids id) sleep (fun step x moved z ->
             if restrict x then begin
               let lid, fresh = Intern.intern sh.ids x in
               if fresh then begin
                 check_room lid max_states;
                 record sh lid ~parent:id ~via:step ~sleep:z;
                 Obs.visit ();
                 Obs.hit moved;
                 if found x then begin
                   witness := Some lid;
                   raise Exit
                 end;
                 Queue.push (lid, z) q
               end
               else if covering then
                 match Indep.sleep_covered ~stored:sh.sleep.(lid) ~incoming:z with
                 | `Covered -> ()
                 | `Shrink z' ->
                     sh.sleep.(lid) <- z';
                     Queue.push (lid, z') q
             end)
       done
     with Exit -> ());
    !witness
  end

let ws_shards = 64

(* Work stealing over [jobs] domains: per-domain deques ({!Ws_deque}:
   LIFO owner end, batch FIFO steals) and the visited set split over
   [ws_shards] mutex-guarded shards.  No barrier: the reachable set is
   the FIFO one (when nothing stops the search early), hence verdicts
   are; which witness is found first, and the discovery order, are not.
   The covering rule runs atomically under the shard lock, which is
   sound for any arrival order, so the reduced set depends on the races.

   Termination: [pending] counts queued-but-unfinished work items, so an
   empty deque with [pending = 0] means the search is drained.  Any
   worker that finds a witness CASes its id into [witness] and raises
   [stop]; the cap works the same way, so it can overshoot by the work
   in flight but never undershoot.  Worker 0 runs in the calling domain,
   where it polls {!Ddlock_obs.Cancel} (the poll slot is domain-local),
   raises [stop] on cancellation and re-raises after joining the other
   domains. *)
let work_stealing ~jobs ~max_states ~restrict ~found v init =
  if max_states < 1 then raise (Too_large 0);
  let s0 = shard_of v init in
  let lid0, _ = Intern.intern v.shards.(s0).ids init in
  record v.shards.(s0) lid0 ~parent:(-1) ~via:no_step ~sleep:[];
  Obs.visit ();
  let g0 = gid v ~shard:s0 lid0 in
  if found init then Some g0
  else begin
    let total = Atomic.make 1 in
    let stop = Atomic.make false in
    let witness = Atomic.make (-1) in
    let overflow = Atomic.make false in
    let pending = Atomic.make 1 in
    let deques = Array.init jobs (fun _ -> Ws_deque.create ()) in
    Ws_deque.push deques.(0) (g0, init, []);
    let covering = v.succ.covering in
    let process dq (pg, px, sleep) =
      v.succ.expand px sleep (fun step x moved z ->
          if (not (Atomic.get stop)) && restrict x then begin
            let s = shard_of v x in
            let sh = v.shards.(s) in
            Mutex.lock sh.lock;
            let lid, fresh = Intern.intern sh.ids x in
            if fresh then begin
              record sh lid ~parent:pg ~via:step ~sleep:z;
              Mutex.unlock sh.lock;
              if Atomic.fetch_and_add total 1 >= max_states then begin
                Atomic.set overflow true;
                Atomic.set stop true
              end
              else begin
                Obs.visit ();
                Obs.hit moved;
                if found x then begin
                  ignore (Atomic.compare_and_set witness (-1) (gid v ~shard:s lid));
                  Atomic.set stop true
                end
                else begin
                  Atomic.incr pending;
                  Ws_deque.push dq (gid v ~shard:s lid, x, z)
                end
              end
            end
            else if covering then begin
              match Indep.sleep_covered ~stored:sh.sleep.(lid) ~incoming:z with
              | `Covered -> Mutex.unlock sh.lock
              | `Shrink z' ->
                  sh.sleep.(lid) <- z';
                  Mutex.unlock sh.lock;
                  Atomic.incr pending;
                  Ws_deque.push dq (gid v ~shard:s lid, x, z')
            end
            else Mutex.unlock sh.lock
          end)
    in
    let worker w =
      let dq = deques.(w) in
      let rec steal tries u =
        if tries >= jobs then 0
        else if u = w then steal (tries + 1) ((u + 1) mod jobs)
        else
          let n = Ws_deque.steal_into dq ~victim:deques.(u) in
          if n > 0 then n else steal (tries + 1) ((u + 1) mod jobs)
      in
      let rec loop () =
        if w = 0 then Ddlock_obs.Cancel.poll ();
        if not (Atomic.get stop) then
          match Ws_deque.pop dq with
          | Some item ->
              process dq item;
              Atomic.decr pending;
              loop ()
          | None ->
              if Atomic.get pending > 0 then begin
                let stolen = steal 0 ((w + 1) mod jobs) in
                if stolen > 0 then Obs.M.Counter.add Obs.steals stolen
                else Domain.cpu_relax ();
                loop ()
              end
      in
      loop ()
    in
    (* Child domains re-install the caller's request context so their
       spans stay attributed to the request being served. *)
    let req = Ddlock_obs.Request.current () in
    let doms =
      Array.init (jobs - 1) (fun i ->
          Domain.spawn (fun () ->
              Ddlock_obs.Request.with_id req (fun () ->
                  try worker (i + 1)
                  with e ->
                    Atomic.set stop true;
                    raise e)))
    in
    let cancelled =
      match worker 0 with
      | () -> None
      | exception (Ddlock_obs.Cancel.Cancelled as e) ->
          Atomic.set stop true;
          Some e
    in
    Array.iter Domain.join doms;
    Option.iter raise cancelled;
    Obs.M.Counter.add Obs.intern_hits
      (Array.fold_left (fun a sh -> a + Intern.hits sh.ids) 0 v.shards);
    Obs.M.Counter.add Obs.arena_reuse
      (Array.fold_left (fun a d -> a + Ws_deque.reuses d) 0 deques);
    let w = Atomic.get witness in
    if w >= 0 then Some w
    else if Atomic.get overflow then raise (Too_large (Atomic.get total))
    else None
  end

(* The kernel: one search of the space [succ] spans from [init], under
   [policy].  Returns the visited set and the first [found] node. *)
let search ~max_states ~restrict ~found policy succ init =
  Ddlock_obs.Metrics.Counter.incr Obs.searches;
  let name, shards, run =
    match policy with
    | Fifo -> ("explore.fifo", 1, fifo)
    | Work_stealing jobs ->
        ("explore.work_stealing", ws_shards, work_stealing ~jobs)
  in
  Obs.T.span name @@ fun () ->
  let v = visited_create succ shards in
  let w = run ~max_states ~restrict ~found v init in
  (v, Option.map (fun g -> (path v g, node v g)) w)

(* -------------------------- state spaces --------------------------- *)

(* The canonicalizer a symmetric search should use: [None] when symmetry
   is off or the automorphism group is trivial (then canonicalization is
   the identity and the plain successor function is already optimal). *)
let active_canon ~symmetry sys =
  if not symmetry then None
  else
    let c = Canon.detect sys in
    if Canon.nontrivial c then begin
      Ddlock_obs.Metrics.Gauge.set_max Obs.orbit_gauge (Canon.orbit_size c);
      Some c
    end
    else None

let state_search ?(max_states = default_cap) ?(restrict = fun _ -> true)
    ?(symmetry = false) ?(por = false) policy sys ~found =
  let canon = active_canon ~symmetry sys in
  let succ =
    match (por, canon) with
    | true, _ -> reduced canon sys
    | false, None -> plain sys
    | false, Some c -> symmetric c sys
  in
  let init =
    match canon with
    | None -> State.initial sys
    | Some c -> fst (Canon.normalize c (State.initial sys))
  in
  (canon, search ~max_states ~restrict ~found policy succ init)

type space = { sys : System.t; canon : Canon.t option; visited : State.t visited }

let explore ?max_states ?symmetry ?por policy sys =
  let canon, (visited, _) =
    state_search ?max_states ?symmetry ?por policy sys ~found:(fun _ -> false)
  in
  { sys; canon; visited }

let system sp = sp.sys
let state_count sp = count sp.visited
let states sp = nodes sp.visited

let rep sp st =
  match sp.canon with None -> st | Some c -> fst (Canon.normalize c st)

let is_reachable sp st = find sp.visited (rep sp st) <> None

(* For a symmetric space the stored path reaches the representative of
   [st]'s orbit; it is replayed through the permutations to reach [st]
   itself. *)
let schedule_to sp st =
  Option.map
    (fun g ->
      let steps = path sp.visited g in
      match sp.canon with None -> steps | Some c -> Canon.realize_to c steps st)
    (find sp.visited (rep sp st))

(* With a canonicalizer active, [found] and [restrict] see orbit
   representatives (both must be invariant under the group); the
   witness is translated back to the original system on the way out. *)
let bfs ?max_states ?restrict ?symmetry ?por policy sys ~found =
  match state_search ?max_states ?restrict ?symmetry ?por policy sys ~found with
  | _, (_, None) -> None
  | None, (_, w) -> w
  | Some c, (_, Some (steps, _)) -> Some (Canon.realize c steps)

(* Witness canonicalization, shared by POR and work stealing: their
   verdict stands, but the witness comes from a plain FIFO re-search,
   so output is byte-identical to plain search under every option.  When
   the re-search exceeds the budget the raw witness (valid, just not
   BFS-minimal) is kept. *)
let canonical ~rerun raw =
  match rerun () with
  | Some w -> Some w
  | None -> Some raw
  | exception Too_large _ -> Some raw

let find_deadlock ?max_states ?symmetry ?(por = false) policy sys =
  let dead st = State.is_deadlock sys st in
  let r =
    match bfs ?max_states ?symmetry ~por policy sys ~found:dead with
    | Some raw when por || policy <> Fifo ->
        canonical raw ~rerun:(fun () -> bfs ?max_states Fifo sys ~found:dead)
    | r -> r
  in
  if r <> None then begin
    Ddlock_obs.Metrics.Counter.incr Obs.deadlock_witnesses;
    Obs.T.instant "explore.deadlock_witness"
  end;
  r

(* Verdict only: reduced or relaxed searches skip the witness
   re-search. *)
let deadlock_free ?max_states ?symmetry ?(por = false) policy sys =
  if por || policy <> Fifo then
    bfs ?max_states ?symmetry ~por policy sys ~found:(State.is_deadlock sys)
    = None
  else find_deadlock ?max_states ?symmetry policy sys = None

let lemma1 ?(max_states = default_cap) policy sys ~report =
  let found x =
    (match report with
    | `All_cyclic -> true
    | `Complete_cyclic -> State.all_finished sys x.Lemma1.st)
    && Lemma1.cycle sys x <> None
  in
  let run policy =
    Option.map
      (fun (steps, x) -> (steps, Option.get (Lemma1.cycle sys x)))
      (snd
         (search ~max_states ~restrict:(fun _ -> true) ~found policy
            (Lemma1.succ sys) (Lemma1.initial sys)))
  in
  match run policy with
  | Some raw when policy <> Fifo -> canonical raw ~rerun:(fun () -> run Fifo)
  | r -> r
