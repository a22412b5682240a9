(* The repository benchmark: host-time performance of the OCaml
   implementation on named workloads.

     bench.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
     bench.exe --workload W --bless   (print W's golden Run_result)

   Run from the repository root.  Untraced ([--trace 0]) it repeats the
   workload through [Driver.run_rt] until [--seconds] are spent and
   prints the end-to-end metrics; traced ([--trace 1]) it alternates
   untraced and traced repetitions and prints the per-layer metrics.
   Every repetition is checked (heap and oracle invariants, the golden
   simulated result) and counted as attempted or failed.  The last line
   of standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}. *)

open Otfgc
module Heap = Otfgc_heap.Heap
module Histogram = Otfgc_support.Histogram
module Json = Otfgc_support.Json
module Driver = Otfgc_workloads.Driver
module Run_result = Otfgc_metrics.Run_result

let now = Unix.gettimeofday
let result_json r = Json.to_string (Run_result.to_json r)

(* ---------------------------------------------------------------- *)
(* Golden results and correctness checks                             *)
(* ---------------------------------------------------------------- *)

let load_expected (w : Workload.t) =
  let path = Filename.concat "perfbench/expected" (w.name ^ ".json") in
  let ic = open_in_bin path in
  let text = String.trim (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  match Result.bind (Json.of_string text) Run_result.of_json with
  | Ok r -> r
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let ( let* ) = Result.bind

(* Invariants of the quiescent end state.  Under domains the driver's
   finale has run two full collections, so nothing unreachable may
   survive. *)
let check_end_state (w : Workload.t) rt =
  let st = Runtime.state rt in
  let* () = Oracle.check_safety st in
  let* () = Heap.check ~check_slots:true (Runtime.heap rt) in
  let* () = Oracle.check_intergen_invariant st in
  if Workload.is_sim w then Ok ()
  else
    match Oracle.garbage st with
    | [] -> Ok ()
    | g ->
        Error
          (Printf.sprintf "%d unreachable objects survived the finale"
             (List.length g))

(* What a repetition's simulated result must match: on the simulator the
   whole [Run_result] (a speed-only change moves no simulated statistic),
   under domains the allocation total of the simulator run with the same
   parameters, which the driver documents as exact. *)
type reference = Sim_result of string | Alloc_total of int

let check_result reference r =
  match reference with
  | Sim_result json ->
      if result_json r = json then Ok ()
      else Error "simulated Run_result differs from the reference"
  | Alloc_total n ->
      if r.Run_result.total_alloc_bytes = n then Ok ()
      else
        Error
          (Printf.sprintf "allocated %d bytes, the simulator allocates %d"
             r.Run_result.total_alloc_bytes n)

(* ---------------------------------------------------------------- *)
(* One repetition through the driver                                 *)
(* ---------------------------------------------------------------- *)

exception Set_up

type rep = {
  wall : float;  (** host seconds of the [Driver.run_rt] call *)
  setup : float;  (** call -> runtime, heap and side tables exist *)
  to_ref : float;  (** [Calib.to_ref] of the samples taken around it *)
  words : float;  (** host minor words allocated by the call *)
  result : Run_result.t;
}

let run_rt ?(instrument = fun (_ : Runtime.t) -> ()) (w : Workload.t) ~seed =
  Driver.run_rt ~seed ~scale:w.scale ~substrate:w.substrate ~instrument
    ~gc:Workload.gc w.profile

(* Host minor words.  [Gc.minor_words] counts this domain's allocation
   to the word.  Under domains most of the work runs on domains that are
   joined before the run returns, and only [Gc.quick_stat] adds those in,
   at a coarser granularity (its count moves in steps of ~64 Ki words). *)
let host_words (w : Workload.t) =
  if Workload.is_sim w then Gc.minor_words ()
  else (Gc.quick_stat ()).Gc.minor_words

let run_once ?(instrument = fun _ -> ()) w ~seed =
  let before = Calib.sample () in
  Gc.compact ();
  let setup = ref nan in
  let w0 = host_words w in
  let t0 = now () in
  let result, rt =
    run_rt w ~seed ~instrument:(fun rt ->
        setup := now () -. t0;
        Workload.arm rt;
        instrument rt)
  in
  let wall = now () -. t0 in
  let words = host_words w -. w0 in
  (* Host speed also moves within a repetition of several seconds: the
     mean of a sample on each side of it tracks that better than the one
     before (sim-jack, 112 repetitions: medians of 7 spread 3.4% against
     7.5%). *)
  let to_ref = Calib.to_ref ((before +. Calib.sample ()) /. 2.) in
  ({ wall; setup = !setup; to_ref; words; result }, rt)

(* Set-up alone, at the reference speed: the run is abandoned as soon as
   the runtime exists. *)
let setup_once w ~seed =
  let to_ref = Calib.to_ref (Calib.sample ()) in
  Gc.compact ();
  let setup = ref nan in
  let t0 = now () in
  (try
     ignore
       (run_rt w ~seed ~instrument:(fun _ ->
            setup := now () -. t0;
            raise Set_up))
   with Set_up -> ());
  !setup *. to_ref

(* Repetition bookkeeping shared by both modes. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reference : reference option;
}

let record tally ~what outcome =
  tally.attempted <- tally.attempted + 1;
  match outcome with
  | Ok () -> ()
  | Error e ->
      tally.failed <- tally.failed + 1;
      Printf.eprintf "%s: check failed: %s\n%!" what e

(* At the blessed seed and scale ([golden]) every repetition must match
   the golden result.  Otherwise the first repetition's result becomes
   the reference, so every later one must reproduce it exactly: the
   whole [Run_result] on the simulator, the allocation total under
   domains. *)
let reference_of (w : Workload.t) r =
  if Workload.is_sim w then Sim_result (result_json r)
  else Alloc_total r.Run_result.total_alloc_bytes

let new_tally w ~golden =
  let reference =
    if golden then Some (reference_of w (load_expected w)) else None
  in
  { attempted = 0; failed = 0; reference }

(* End-state invariants plus the reference result. *)
let checked tally w rt result =
  let* () = check_end_state w rt in
  match tally.reference with
  | Some reference -> check_result reference result
  | None ->
      tally.reference <- Some (reference_of w result);
      Ok ()

(* Under domains without a golden result, the allocation total the
   repetitions agreed on must also be the simulator's for the same
   parameters.  That simulator run comes after timing, so it weighs on
   no metric. *)
let finish tally (w : Workload.t) ~seed ~golden =
  match tally.reference with
  | Some reference when (not golden) && not (Workload.is_sim w) ->
      let sim = { w with substrate = Otfgc_sched.Substrate.Sim } in
      let r, _ = run_rt sim ~seed in
      record tally ~what:"simulator reference" (check_result reference r)
  | _ -> ()

(* Repeat [f] until the time is up, at least [min] times; the next
   repetition starts only if one as long as the last still fits. *)
let repeat ~seconds ~min f =
  let start = now () in
  let rec go acc n =
    let t0 = now () in
    let acc = f n :: acc in
    let took = now () -. t0 in
    let elapsed = now () -. start in
    if n + 1 < min || elapsed +. took <= seconds then go acc (n + 1)
    else List.rev acc
  in
  go [] 0

(* ---------------------------------------------------------------- *)
(* Output                                                            *)
(* ---------------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let print_result tally metrics =
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  List.iter
    (fun x ->
      if not (Float.is_finite x.value) then
        Printf.eprintf "metric %s is not a finite number\n%!" x.name)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (if Float.is_finite x.value then Printf.sprintf "%.17g" x.value
              else "0")
             x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0 && finite)
    tally.attempted tally.failed body

let handshakes rt =
  let tel = Runtime.telemetry rt in
  List.fold_left
    (fun acc s -> Histogram.merge acc (Telemetry.handshake_latency tel s))
    (Histogram.create ())
    [ Status.Sync1; Status.Sync2; Status.Async ]

let units (r : Run_result.t) = float_of_int r.elapsed_multi
let ref_wall r = r.wall *. r.to_ref

(* Microseconds per unit of the handshake histograms: they hold
   wall-clock microseconds under domains, reported as measured (their
   tail is mostly the 100 us sleeps of [Substrate.wait_until], which do
   not scale with CPU speed); on the simulator they hold simulated
   units, read at the repetitions' median host time per unit. *)
let us_per_hist_unit (w : Workload.t) reps =
  if Workload.is_sim w then
    Summary.median (List.map (fun r -> ref_wall r /. units r.result) reps)
    *. 1e6
  else 1.

(* ---------------------------------------------------------------- *)
(* Untraced: the end-to-end metrics                                   *)
(* ---------------------------------------------------------------- *)

(* The major-heap peak of one repetition, run in a fresh process of
   this program ([--peak]).  [top_heap_words] is a high-water mark, so
   in the measuring process it would carry the peaks of the set-ups and
   of earlier repetitions, and it would grow with the number of
   repetitions that fit. *)
let peak_in_child (w : Workload.t) ~seed =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [|
        exe; "--workload"; w.name; "--seed"; string_of_int seed; "--scale";
        Printf.sprintf "%.17g" w.scale; "--peak";
      |]
  in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, float_of_string_opt line) with
  | Unix.WEXITED 0, Some mb -> mb
  | _ -> nan

let end_to_end (w : Workload.t) ~seed ~golden ~seconds =
  (* The process's first set-ups also pay for growing its heap; a
     repetition's set-up runs in a heap the previous run left behind.
     Neither is the steady set-up cost, so only the set-ups after the
     first three count. *)
  let setups = List.init 28 (fun _ -> setup_once w ~seed) in
  let setups = List.filteri (fun i _ -> i >= 3) setups in
  let tally = new_tally w ~golden in
  let reps =
    repeat ~seconds ~min:3 (fun i ->
        let rep, rt = run_once w ~seed in
        record tally ~what:(Printf.sprintf "repetition %d" i)
          (checked tally w rt rep.result);
        rep)
  in
  let med f = Summary.median (List.map f reps) in
  finish tally w ~seed ~golden;
  Printf.printf "%s seed %d: %d repetitions, median %.3f s\n" w.name seed
    (List.length reps)
    (med (fun r -> r.wall));
  let peaks = List.init 3 (fun _ -> peak_in_child w ~seed) in
  ( tally,
    [
      m "sim_munits_per_s" "Munits/s"
        (med (fun r -> units r.result /. ref_wall r /. 1e6));
      m "host_alloc_mwords" "Mwords" (med (fun r -> r.words /. 1e6));
      m "host_peak_heap_mb" "MB" (Summary.median peaks);
      m "alloc_mb_per_s" "MB/s"
        (med (fun r ->
             float_of_int r.result.Run_result.total_alloc_bytes
             /. ref_wall r /. 1e6));
      m "setup_s" "s"
        (Summary.median setups);
      m "passed_run_share" "fraction"
        (float_of_int (tally.attempted - tally.failed)
        /. float_of_int tally.attempted);
    ] )

(* ---------------------------------------------------------------- *)
(* Traced: the per-layer metrics                                      *)
(* ---------------------------------------------------------------- *)

let gc_counts rt (r : Run_result.t) =
  let tel = Runtime.telemetry rt in
  [
    m "gc.cycles" "count" (float_of_int (r.n_partial + r.n_full + r.n_non_gen));
    m "gc.handshake_acks" "count" (float_of_int (Telemetry.handshake_acks tel));
    m "gc.stalls" "count" (float_of_int (Telemetry.stalls tel));
    m "gc.lock_waits" "count" (float_of_int (Telemetry.lock_waits_total tel));
  ]

(* No workload runs a full collection in its measured lap, so the clear
   phase (full collections only) is not reported. *)
let phase_names = [ "handshake"; "card_scan"; "trace"; "sweep" ]

(* Per-layer metrics of one traced simulator repetition.  The scheduler's
   share is estimated from the yield micro: it is already inside the
   process slices, whose shares sum to 1. *)
let sim_layers (t : Sim_trace.traced) ~untraced_wall ~yield_ns =
  let open Sim_trace in
  let s = t.slices in
  let r = t.result in
  let lap = lap_secs t in
  let cycles = float_of_int (r.n_partial + r.n_full + r.n_non_gen) in
  let sum lo hi a = Array.fold_left ( +. ) 0. (Array.sub a lo (hi - lo + 1)) in
  let in_cycle = sum (b_phase Cost.Clear) b_tail s.secs in
  let tail_n = float_of_int s.count.(b_tail) in
  let idle_n = float_of_int s.count.(b_idle) in
  let lap_steps = float_of_int (Array.fold_left ( + ) 0 s.count) in
  let hs = handshakes t.rt in
  [
    m "sched.steps" "count" (float_of_int t.steps);
    m "sched.lap_steps" "count" lap_steps;
    m "mutator.host_s" "s" s.secs.(b_mutator);
    m "mutator.ns_per_unit" "ns"
      (s.secs.(b_mutator) *. 1e9 /. float_of_int r.mutator_work);
    m "mutator.words_per_unit" "words"
      (s.words.(b_mutator) /. float_of_int r.mutator_work);
    m "collector.idle_s" "s" s.secs.(b_idle);
    m "collector.idle_steps" "count" idle_n;
    m "collector.poll_hit_ratio" "fraction" (cycles /. idle_n);
  ]
  @ List.map2
      (fun name p -> m ("collector.phase_s." ^ name) "s" s.secs.(b_phase p))
      phase_names
      [ Cost.Handshake; Cost.Card_scan; Cost.Trace; Cost.Sweep ]
  @ [
      m "collector.cycle_tail_ms" "ms" (s.secs.(b_tail) *. 1e3 /. tail_n);
      m "collector.cycle_ms" "ms" (in_cycle *. 1e3 /. cycles);
      m "collector.ns_per_unit" "ns"
        (in_cycle *. 1e9 /. float_of_int r.collector_work);
      m "collector.words_per_unit" "words"
        (sum (b_phase Cost.Clear) b_tail s.words
        /. float_of_int r.collector_work);
      m "handshake.span_us" "us" (Histogram.mean hs *. lap /. units r *. 1e6);
      m "share.mutator" "fraction" (s.secs.(b_mutator) /. lap);
      m "share.collector_idle" "fraction" (s.secs.(b_idle) /. lap);
      m "share.collector_phases" "fraction"
        (sum (b_phase Cost.Clear) (b_phase Cost.Sweep) s.secs /. lap);
      m "share.cycle_tail" "fraction" (s.secs.(b_tail) /. lap);
      m "share.sched_est" "fraction" (lap_steps *. yield_ns *. 1e-9 /. lap);
      m "share.pre_lap" "fraction" (s.pre_lap_s /. (s.pre_lap_s +. lap));
      m "trace.overhead" "fraction" ((t.wall /. untraced_wall) -. 1.);
    ]
  @ gc_counts t.rt r

(* Per-layer metrics of one domains repetition with the flight recorder
   armed: the collector's cycle and phase spans, the handshake track. *)
let dom_layers (rep : rep) rt ~untraced_wall =
  let module Fr = Flight_recorder in
  let r = rep.result in
  let events = Fr.events (Runtime.recorder rt) in
  let spans kind a =
    List.filter
      (fun e -> e.Fr.kind = kind && (a < 0 || e.Fr.a = a))
      events
  in
  let total l = float_of_int (List.fold_left (fun acc e -> acc + e.Fr.dur_ns) 0 l) in
  let mean l = total l /. float_of_int (Stdlib.max 1 (List.length l)) in
  let cycles = spans Fr.Cycle (-1) in
  let sweeps = spans Fr.Phase 3 in
  let handshakes = spans Fr.Handshake (-1) in
  (* cycle tail: from the end of the cycle's sweep to the end of the cycle *)
  let tails =
    List.filter_map
      (fun c ->
        let c_end = c.Fr.t0_ns + c.Fr.dur_ns in
        List.find_opt
          (fun s -> s.Fr.t0_ns >= c.Fr.t0_ns && s.Fr.t0_ns < c_end)
          sweeps
        |> Option.map (fun s -> float_of_int (c_end - s.Fr.t0_ns - s.Fr.dur_ns)))
      cycles
  in
  let run_s = rep.wall -. rep.setup in
  let in_cycle = total cycles /. 1e9 in
  [
    m "sched.steps" "count" 0.;
    m "sched.lap_steps" "count" 0.;
    m "mutator.host_s" "s" run_s;
    m "mutator.ns_per_unit" "ns" (run_s *. 1e9 /. float_of_int r.mutator_work);
    m "mutator.words_per_unit" "words" 0.;
    m "collector.idle_s" "s" (run_s -. in_cycle);
    m "collector.idle_steps" "count" 0.;
    m "collector.poll_hit_ratio" "fraction" 0.;
    m "collector.phase_s.handshake" "s" (total handshakes /. 1e9);
    m "collector.phase_s.card_scan" "s" (total (spans Fr.Phase 1) /. 1e9);
    m "collector.phase_s.trace" "s" (total (spans Fr.Phase 2) /. 1e9);
    m "collector.phase_s.sweep" "s" (total sweeps /. 1e9);
    m "collector.cycle_tail_ms" "ms" (Summary.median tails /. 1e6);
    m "collector.cycle_ms" "ms" (mean cycles /. 1e6);
    m "collector.ns_per_unit" "ns"
      (in_cycle *. 1e9 /. float_of_int r.collector_work);
    m "collector.words_per_unit" "words" 0.;
    m "handshake.span_us" "us" (mean handshakes /. 1e3);
    m "share.mutator" "fraction" 0.;
    m "share.collector_idle" "fraction" 0.;
    m "share.collector_phases" "fraction" 0.;
    m "share.cycle_tail" "fraction" 0.;
    m "share.sched_est" "fraction" 0.;
    m "share.pre_lap" "fraction" 0.;
    m "trace.overhead" "fraction" ((rep.wall /. untraced_wall) -. 1.);
  ]
  @ gc_counts rt r

let micro name unit_ (r : Micro.result) =
  [ m name unit_ r.value; m (name ^ ".spread") "fraction" r.spread ]

(* The scheduler micro runs a scheduler of its own, so never inside a
   simulated run. *)
let yield_micros ~seed =
  let y = Micro.sched_yield ~seed in
  micro "sched.yield_ns" "ns" y @ [ m "sched.yield_words" "words" y.words ]

let state_micros st heap =
  micro "oracle.garbage_ms" "ms" (Micro.oracle_garbage st)
  @ micro "oracle.reachable_ms" "ms" (Micro.oracle_reachable st)
  @ micro "observatory.census_row_ms" "ms" (Micro.census_row st)
  @ micro "heap.alloc_free_ns" "ns" (Micro.heap_alloc_free heap)

exception Micro_stop

(* Micros on the simulator's warm mid-run state: the run stops right
   after the collector's [at]-th cycle, with every mutator live. *)
let sim_micros w ~seed ~at =
  let found = ref [] in
  (try
     ignore
       (Sim_trace.run ~traced:false w ~seed ~on_cycle:(fun st k ->
            if k = at then begin
              found := state_micros st st.State.heap;
              raise Micro_stop
            end)
         : Sim_trace.traced)
   with Micro_stop -> ());
  !found

(* Median of each per-layer metric across repetitions. *)
let medians = function
  | [] -> []
  | first :: _ as reps ->
      List.mapi
        (fun i x ->
          m x.name x.unit_
            (Summary.median (List.map (fun l -> (List.nth l i).value) reps)))
        first

let share_report layers =
  let get name = (List.find (fun x -> x.name = name) layers).value in
  Printf.printf
    "host time of the measured lap: mutator %.1f%%, idle collector %.1f%%, \
     collector phases %.1f%%, cycle tail %.1f%% (scheduler, inside those \
     slices: ~%.1f%%); build and warm-up before the lap: %.1f%% of \
     Sched.run\n"
    (100. *. get "share.mutator")
    (100. *. get "share.collector_idle")
    (100. *. get "share.collector_phases")
    (100. *. get "share.cycle_tail")
    (100. *. get "share.sched_est")
    (100. *. get "share.pre_lap")

(* The slices of a traced simulator run partition [Sched.run] exactly. *)
let check_partition (t : Sim_trace.traced) =
  let sum = t.slices.Sim_trace.pre_lap_s +. Sim_trace.lap_secs t in
  if Float.abs (sum -. t.sched_wall) <= 1e-9 *. t.sched_wall then Ok ()
  else
    Error
      (Printf.sprintf "slices sum to %.9f s, Sched.run took %.9f s" sum
         t.sched_wall)

let per_layer (w : Workload.t) ~seed ~golden ~seconds =
  let tally = new_tally w ~golden in
  let yields = yield_micros ~seed in
  let yield_ns = (List.hd yields).value in
  let micros = ref [] in
  let untraced = ref [] in
  let pooled = Histogram.create () in
  let layers =
    repeat ~seconds ~min:2 (fun i ->
        let rep, rt = run_once w ~seed in
        record tally ~what:(Printf.sprintf "untraced %d" i)
          (checked tally w rt rep.result);
        untraced := rep :: !untraced;
        Histogram.add_into ~src:(handshakes rt) ~dst:pooled;
        let what = Printf.sprintf "traced %d" i in
        if Workload.is_sim w then begin
          Gc.compact ();
          let t = Sim_trace.run w ~seed in
          (* fidelity guard: the bench-local driver copy reproduces the
             driver's simulated result byte for byte *)
          record tally ~what
            (let* () = check_end_state w t.rt in
             let* () = check_result (Sim_result (result_json rep.result)) t.result in
             check_partition t);
          Printf.printf
            "traced %d: the slices of %d scheduling steps sum to %.6f s; \
             Sched.run took %.6f s\n"
            i t.steps
            (t.slices.pre_lap_s +. Sim_trace.lap_secs t)
            t.sched_wall;
          if i = 0 then
            micros := sim_micros w ~seed ~at:(1 + ((t.cycles - 1) / 2));
          sim_layers t ~untraced_wall:rep.wall ~yield_ns
        end
        else begin
          let traced, rt =
            run_once w ~seed ~instrument:(fun rt -> Runtime.arm_recorder rt)
          in
          let dropped = Flight_recorder.dropped (Runtime.recorder rt) in
          record tally ~what
            (let* () = checked tally w rt traced.result in
             if dropped = 0 then Ok ()
             else Error (Printf.sprintf "flight recorder dropped %d events" dropped));
          (* the quiescent end state after the finale *)
          if i = 0 then
            micros := state_micros (Runtime.state rt) (Runtime.heap rt);
          dom_layers traced rt ~untraced_wall:rep.wall
        end)
  in
  let layers =
    medians layers @ !micros @ yields
    @ [
        m "host.calib_ms" "ms"
          (Summary.median
             (List.map (fun r -> Calib.nominal_s /. r.to_ref *. 1e3) !untraced));
        m "handshake.p50_us" "us"
          (Summary.hist_percentile pooled 0.5 *. us_per_hist_unit w !untraced);
        m "handshake.p95_us" "us"
          (Summary.hist_percentile pooled 0.95 *. us_per_hist_unit w !untraced);
        m "handshake.mean_us" "us"
          (Histogram.mean pooled *. us_per_hist_unit w !untraced);
      ]
  in
  finish tally w ~seed ~golden;
  if Workload.is_sim w then share_report layers;
  (tally, layers)

(* ---------------------------------------------------------------- *)
(* Command line                                                      *)
(* ---------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref Workload.default_seed in
  let seconds = ref 10. and trace = ref 0 and bless = ref false in
  let scale = ref None and peak = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S time to measure (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1)");
      ("--bless", Arg.Set bless, " print the workload's golden Run_result");
      ("--peak", Arg.Set peak, " run once, print the major-heap peak in MB");
      ( "--scale",
        Arg.Float (fun f -> scale := Some f),
        "F size of one repetition instead of the workload's own (no golden \
         check; for comparing layer shares across sizes)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
     [--scale F]";
  match Workload.find !workload with
  | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all));
      exit 2
  | Some w when !bless ->
      let sim = { w with substrate = Otfgc_sched.Substrate.Sim } in
      let r, _ = run_rt sim ~seed:Workload.default_seed in
      print_endline (result_json r)
  | Some w ->
      let tally, metrics =
        let golden = !seed = Workload.default_seed && !scale = None in
        let w =
          match !scale with None -> w | Some scale -> { w with scale }
        in
        if !peak then begin
          (* the run alone: no reference-loop pass may raise the mark *)
          ignore
            (run_rt w ~seed:!seed ~instrument:Workload.arm
              : Run_result.t * Runtime.t);
          (* under domains: the per-domain peaks summed, the joined
             domains included *)
          let top = (Gc.quick_stat ()).Gc.top_heap_words in
          Printf.printf "%.17g\n"
            (float_of_int (top * (Sys.word_size / 8)) /. 1e6);
          exit 0
        end;
        if !trace = 0 then end_to_end w ~seed:!seed ~golden ~seconds:!seconds
        else per_layer w ~seed:!seed ~golden ~seconds:!seconds
      in
      print_result tally metrics
