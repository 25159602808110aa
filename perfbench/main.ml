(* The benchmark's command line:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload, checks its outputs outside the timed window, and
   prints a human-readable report followed, on the last line, by one
   JSON object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   per-layer ones from a separate traced run.  Exit status 1 when any
   output fails its check. *)

module Stats = Perfbench.Stats

let schema_version = 1

let workloads =
  [
    ("analyze-corpus", Wl_analyze.run);
    ("serve-mixed", Wl_serve.run);
    ("sim-recovery", Wl_sim.run);
  ]

let end_to_end_units =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("p50_ms", "ms");
    ("tail_ms", "ms");
    ("hit_p50_ms", "ms");
    ("hit_tail_ms", "ms");
    ("miss_p50_ms", "ms");
    ("miss_tail_ms", "ms");
    ("peak_rss_mb", "MiB");
  ]

let per_layer_units =
  [
    ("schedule.search_ms_per_sys", "ms");
    ("schedule.us_per_state", "us");
    ("schedule.succ_us_per_state", "us");
    ("schedule.key_us_per_state", "us");
    ("schedule.hash_us_per_state", "us");
    ("schedule.intern_us_per_state", "us");
    ("schedule.dltest_us_per_state", "us");
    ("schedule.witness_us", "us");
    ("schedule.alloc_bytes_per_state", "B");
    ("schedule.states_per_sys", "count");
    ("schedule.searches_per_sys", "count");
    ("schedule.por_states_ratio", "ratio");
    ("schedule.por_ms_per_sys", "ms");
    ("schedule.sym_states_ratio", "ratio");
    ("schedule.self_frac", "ratio");
    ("par.fast_j1_ms_per_sys", "ms");
    ("par.fast_j2_ms_per_sys", "ms");
    ("par.det_j2_ms_per_sys", "ms");
    ("safety.us_per_sys", "us");
    ("safety.certified_frac", "ratio");
    ("graph.cycles_us_per_sys", "us");
    ("model.parse_us", "us");
    ("canon.key_us", "us");
    ("core.narrate_us_per_deadlock", "us");
    ("serve.cache_hit_rate", "ratio");
    ("serve.protocol_us", "us");
    ("serve.queue_wait_ms", "ms");
    ("serve.worker_busy_frac", "ratio");
    ("serve.hit_engine_searches", "count");
    ("sim.recovery_us_per_run", "us");
    ("sim.runtime_us_per_run", "us");
    ("rw.runtime_us_per_run", "us");
    ("sim.faults_us_per_plan", "us");
    ("sim.aborts_per_commit", "count");
    ("sim.committed_steps_per_s", "1/s");
    ("gc.minor_words_per_op", "words");
    ("gc.promoted_words_per_op", "words");
    ("gc.major_collections_per_op", "count");
    ("trace.overhead_pct", "%");
  ]
  @ List.map
      (fun l -> ("self_ms_per_op." ^ l, "ms"))
      [
        "op"; "model"; "safety"; "graph"; "schedule"; "core"; "serve"; "sim.faults";
        "sim.recovery"; "sim.runtime"; "rw.runtime";
      ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (analyze-corpus|serve-mixed|sim-recovery) --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest when List.mem_assoc w workloads -> workload := Some w; go rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None -> seed := int_of_string_opt n; go rest
    | "--seconds" :: s :: rest when Option.fold ~none:false ~some:(fun s -> s > 0.) (float_of_string_opt s) ->
        seconds := float_of_string_opt s; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some n, Some s, Some t -> (w, n, s, t)
  | _ -> usage ()

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Some (String.trim s)

(* The commit of the working tree, when it is a git checkout. *)
let git_rev () =
  match read_file ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head ->
      let ref_ = String.sub head 5 (String.length head - 5) in
      Option.value (read_file (Filename.concat ".git" ref_)) ~default:ref_
  | Some rev -> rev
  | None -> "unknown"

let nproc () =
  match Unix.open_process_in "nproc" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
      let n = try String.trim (input_line ic) with End_of_file -> "unknown" in
      ignore (Unix.close_process_in ic);
      n

let print_tail name (s : Common.summary) =
  let t = s.Common.tail in
  Printf.printf
    "  %-12s p%.2f, %d beyond per block of %d, median of %d blocks (spread %.3f), %d samples\n"
    name t.Stats.pct t.Stats.beyond t.Stats.block t.Stats.blocks t.Stats.spread
    s.Common.samples

let () =
  let workload, seed, seconds, trace = parse_args () in
  (* A daemon that dies mid-request must show up as failed requests, not
     kill this process and orphan the rest. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n" workload seed seconds
    (Bool.to_int trace);
  Printf.printf "provenance: schema=%d git_rev=%s nproc=%s recommended_domains=%d ocaml=%s\n%!"
    schema_version (git_rev ()) (nproc ()) (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  let r = (List.assoc workload workloads) ~seed ~seconds ~trace in
  let open Common in
  List.iter (fun (k, v) -> Printf.printf "%s: %s\n" k v) r.notes;
  Printf.printf "hit means: %s\n" r.hit_means;
  let metrics =
    if trace then
      List.map
        (fun (name, unit) ->
          (name, Option.value (List.assoc_opt name r.layers) ~default:0., unit))
        per_layer_units
    else begin
      print_endline "tails (highest percentile with at least 10 samples beyond):";
      print_tail "all" r.all;
      print_tail "hit" r.hit;
      print_tail "miss" r.miss;
      Printf.printf "setups: %s s\n"
        (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.4f") r.setups)));
      (* Times and rates at the reference speed (Perfbench.Calib);
         memory stays raw. *)
      let t x = x *. r.scale in
      let values =
        [
          ("setup_s", t (Stats.median r.setups));
          ("ops_per_s", r.ops_per_s /. r.scale);
          ("p50_ms", t r.all.p50);
          ("tail_ms", t r.all.tail.Stats.value);
          ("hit_p50_ms", t r.hit.p50);
          ("hit_tail_ms", t r.hit.tail.Stats.value);
          ("miss_p50_ms", t r.miss.p50);
          ("miss_tail_ms", t r.miss.tail.Stats.value);
          ("peak_rss_mb", r.peak_rss_mb);
        ]
      in
      List.map (fun (n, v) -> (n, v, List.assoc n end_to_end_units)) values
    end
  in
  let fail_frac = Stats.fail_frac ~attempted:(max 1 r.attempted) ~failed:r.failed in
  List.iter (fun (n, v, u) -> Printf.printf "%-34s %14.6g %s\n" n v u) metrics;
  Printf.printf "%-34s %14.6g %s (%d of %d)\n" "fail_frac" fail_frac "ratio" r.failed r.attempted;
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  if not finite then print_endline "error: a metric has no finite value";
  let unknown = List.filter (fun (n, _) -> not (List.mem_assoc n per_layer_units)) r.layers in
  List.iter (fun (n, _) -> Printf.printf "error: unlisted per-layer metric %s\n" n) unknown;
  let correct = r.failed = 0 && r.attempted > 0 && finite && unknown = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    (max 1 r.attempted) r.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n
              (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
              u)
          metrics));
  exit (if correct then 0 else 1)
