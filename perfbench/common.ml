(* What every workload reports, and the small process-level probes
   (clock, peak RSS, GC deltas) they share. *)

(* A latency distribution: its median, its tail and the sample count. *)
type summary = { p50 : float; tail : Perfbench.Stats.tail; samples : int }

let summarize ~block xs =
  { p50 = Perfbench.Stats.median xs; tail = Perfbench.Stats.tail ~block xs; samples = Array.length xs }

type result = {
  attempted : int;
  failed : int;
  setups : float array;  (** seconds of each set-up made in the run *)
  ops_per_s : float;
  all : summary;  (** per-op latency, ms *)
  hit : summary;
  miss : summary;
  hit_means : string;  (** what "hit" means on this workload *)
  scale : float;
      (** factor from this run's host speed to the reference speed
          ({!Perfbench.Calib}), which the report applies to the times,
          the rate and the set-up time above *)
  peak_rss_mb : float;
  layers : (string * float) list;  (** per-layer metrics; traced runs only *)
  notes : (string * string) list;  (** shape parameters and counts *)
}

let now = Perfbench.Spans.now
let secs ns = float_of_int ns /. 1e9
let ms ns = float_of_int ns /. 1e6
let us ns = float_of_int ns /. 1e3

(* Best-of-passes timings of the reference kernel, one slot per
   [every] units of work: call [after] with each unit's index. *)
module Ref_slots = struct
  type t = { every : int; best : float array }

  let create ~units ~every = { every; best = Array.make (max 1 (units / every)) infinity }

  let after t unit =
    if unit mod t.every = t.every - 1 && unit / t.every < Array.length t.best then begin
      let slot = unit / t.every in
      t.best.(slot) <- Float.min t.best.(slot) (ms (Perfbench.Calib.time_ns ()))
    end

  let scale t = Perfbench.Calib.scale t.best
end

(* VmHWM of a live process, in MiB ([nan] when /proc has no entry). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* [Gc.quick_stat] deltas per op, over a stretch of [ops] ops. *)
let gc_per_op (before : Gc.stat) (after : Gc.stat) ops =
  let per x = x /. float_of_int (max 1 ops) in
  [
    ("gc.minor_words_per_op", per (after.minor_words -. before.minor_words));
    ("gc.promoted_words_per_op", per (after.promoted_words -. before.promoted_words));
    ( "gc.major_collections_per_op",
      per (float_of_int (after.major_collections - before.major_collections)) );
  ]

(* Per-layer self time per op from the recorded spans, plus the
   schedule layer's share of all op time. *)
let self_time_layers spans ~ops =
  let self = Perfbench.Spans.self_times spans in
  let total = List.fold_left (fun acc (_, _, t) -> acc + t) 0 self in
  let sched =
    List.fold_left (fun acc (n, _, t) -> if n = "schedule" then acc + t else acc) 0 self
  in
  ( "schedule.self_frac",
    if total = 0 then 0. else float_of_int sched /. float_of_int total )
  :: List.map
       (fun (n, _, t) -> ("self_ms_per_op." ^ n, ms t /. float_of_int (max 1 ops)))
       self

let overhead_pct ~untraced ~traced = 100. *. (untraced -. traced) /. untraced

(* Write the traced run's spans as Chrome trace JSON under .perfbench/;
   false when the document does not validate. *)
let write_trace ~workload ~seed spans =
  let json = Perfbench.Spans.chrome_json spans in
  let path = Printf.sprintf ".perfbench/trace-%s-%d.json" workload seed in
  let oc = open_out_bin path in
  output_string oc json;
  close_out oc;
  match Ddlock_obs.Json.validate json with
  | Ok () -> Printf.printf "trace: %d spans -> %s\n" (List.length spans) path; true
  | Error e -> Printf.printf "trace: %s does not validate: %s\n" path e; false

(* Set up [n] times, timing each; earlier set-ups are discarded (outside
   the timing) and the last one is kept for the measurement. *)
let repeat_setup n ~setup ~discard =
  let times = Array.make n 0. in
  let rec go i prev =
    Option.iter discard prev;
    let t0 = now () in
    let s = setup () in
    times.(i) <- secs (now () - t0);
    if i = n - 1 then s else go (i + 1) (Some s)
  in
  let s = go 0 None in
  (times, s)
