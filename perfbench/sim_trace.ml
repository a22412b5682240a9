(* A bench-local copy of the driver's simulator path, built only from
   public calls, so the benchmark can hook the scheduler and the
   collector from outside:

   - [Sched.set_on_switch] reads the clock and the host minor-word
     counter at every context switch.  Consecutive switches bound one
     process slice, so the slices partition the host time of [Sched.run]
     exactly and each slice is its own self time.  A collector slice is
     filed under the collector phase current when it yields
     ([Cost.current_phase]); the slice in which [Collector.run_cycle]
     returns is the cycle tail (sweep end, floating-garbage oracle, heap
     growth).
   - The collector body is [Collector.collector_loop] with a callback
     after every cycle, which the micro-benchmarks use to stop a run at
     a warm mid-run state.

   The copy must not drift from [Driver.run]: the traced run's
   [Run_result] is compared byte for byte with the driver's. *)

open Otfgc
module Sched = Otfgc_sched.Sched
module Substrate = Otfgc_sched.Substrate
module Rng = Otfgc_support.Rng
module Heap = Otfgc_heap.Heap
module Engine = Otfgc_workloads.Engine
module Profile = Otfgc_workloads.Profile
module Driver = Otfgc_workloads.Driver
module Run_result = Otfgc_metrics.Run_result

(* Slice buckets.  Collector buckets are [1 + Cost.phase_index]. *)
let b_mutator = 0
let b_idle = 1
let b_phase p = 1 + Cost.phase_index p
let b_tail = 7
let b_outside = 8 (* scheduler entry, before the first switch *)
let n_buckets = 9

type slices = {
  secs : float array;
  words : float array;
  count : int array;
  last : float array;  (** [|clock; minor words|] at the last switch *)
  mutable prev : int;  (** bucket class of the running process *)
  mutable tail : bool;  (** run_cycle returned in the running slice *)
  mutable pre_lap_s : float;  (** build phase and warm-up lap *)
}

let new_slices () =
  {
    secs = Array.make n_buckets 0.;
    words = Array.make n_buckets 0.;
    count = Array.make n_buckets 0;
    last = [| 0.; 0. |];
    prev = b_outside;
    tail = false;
    pre_lap_s = 0.;
  }

(* Close the running slice at the current instant.  Allocation-free: the
   clock and the word counter are unboxed externals and every store goes
   to a float array. *)
let close s cost =
  let t = Unix.gettimeofday () in
  let w = Gc.minor_words () in
  let b =
    if s.prev = b_mutator || s.prev = b_outside then s.prev
    else if s.tail then begin
      s.tail <- false;
      b_tail
    end
    else b_phase (Cost.current_phase cost)
  in
  s.secs.(b) <- s.secs.(b) +. (t -. s.last.(0));
  s.words.(b) <- s.words.(b) +. (w -. s.last.(1));
  s.count.(b) <- s.count.(b) + 1;
  s.last.(0) <- t;
  s.last.(1) <- w

let on_switch s cost name =
  close s cost;
  s.prev <- (if String.equal name "collector" then b_idle else b_mutator)

(* End of the warm-up lap: everything so far becomes the pre-lap total,
   so the bucket sums cover exactly the measured lap the [Run_result]
   reports. *)
let start_lap s cost =
  close s cost;
  s.pre_lap_s <- Array.fold_left ( +. ) 0. s.secs;
  Array.fill s.secs 0 n_buckets 0.;
  Array.fill s.words 0 n_buckets 0.;
  Array.fill s.count 0 n_buckets 0

(* [Driver]'s warm-up barrier, simulator branch. *)
let sync_point rt ~n ~prebuilt ~warm ~on_warm i m () =
  Atomic.incr prebuilt;
  if i = 0 then begin
    Substrate.wait_until (fun () ->
        Runtime.cooperate rt m;
        Atomic.get prebuilt = n);
    ignore (Runtime.collect_and_wait rt m ~full:true : Gc_stats.cycle);
    Gc_stats.reset (Runtime.stats rt);
    Cost.reset (Runtime.cost rt);
    Event_log.clear (Runtime.events rt);
    Telemetry.reset (Runtime.telemetry rt);
    Sampler.reset (Runtime.sampler rt);
    Heap.reset_allocation_stats (Runtime.heap rt);
    Atomic.set (Runtime.state rt).State.bytes_since_gc 0;
    Atomic.set warm true;
    on_warm ()
  end
  else
    Substrate.wait_until (fun () ->
        Runtime.cooperate rt m;
        Atomic.get warm)

(* [Collector.collector_loop] (serial: the simulator never arms a crew)
   with a callback after each cycle. *)
let collector_body st ~on_cycle () =
  let open State in
  while not (Atomic.get st.shutdown) do
    Substrate.wait_until (fun () ->
        Atomic.get st.shutdown || Atomic.get st.gc_request <> No_request);
    if not (Atomic.get st.shutdown) then begin
      let full =
        match Atomic.get st.gc_request with Want_full -> true | _ -> false
      in
      ignore (Collector.run_cycle st ~full : Gc_stats.cycle);
      on_cycle ()
    end
  done

type traced = {
  result : Run_result.t;
  rt : Runtime.t;
  wall : float;  (** create -> result, the span [Driver.run_rt] times *)
  sched_wall : float;  (** [Sched.run] *)
  steps : int;
  cycles : int;  (** including the warm-up cycle *)
  slices : slices;
}

(* [Driver.run_rt ~substrate:Sim].  With [traced] the switch hook
   records slices; [on_cycle] receives the state and the number of
   cycles completed so far. *)
let run ?(traced = true) ?(on_cycle = fun _ _ -> ()) (w : Workload.t) ~seed
    =
  let t0 = Unix.gettimeofday () in
  let profile = w.Workload.profile in
  Profile.validate profile;
  let rt =
    Runtime.create ~heap_config:Driver.default_heap ~gc_config:Workload.gc ()
  in
  Runtime.set_fine_grained rt false;
  Workload.arm rt;
  let st = Runtime.state rt in
  let cost = Runtime.cost rt in
  let s = new_slices () in
  let master = Rng.make seed in
  let sched =
    Sched.create ~policy:(Sched.random_policy (Rng.split master)) ()
  in
  let cycles = ref 0 in
  let on_cycle () =
    incr cycles;
    s.tail <- true;
    on_cycle st !cycles
  in
  ignore
    (Sched.spawn sched ~daemon:true ~name:"collector"
       (collector_body st ~on_cycle)
      : Sched.pid);
  let n = profile.Profile.threads in
  if n > 3 then st.State.collector_speed <- 8 * n / 3;
  let quota =
    Stdlib.max 1
      (int_of_float (float_of_int profile.Profile.total_alloc *. w.scale))
  in
  let prebuilt = Atomic.make 0 in
  let warm = Atomic.make false in
  let on_warm () = if traced then start_lap s cost in
  for i = 0 to n - 1 do
    let name = Printf.sprintf "%s-t%d" profile.Profile.name i in
    let m = Runtime.new_mutator rt ~name () in
    let rng = Rng.split master in
    ignore
      (Sched.spawn sched ~name (fun () ->
           Engine.run_thread rt m rng ~profile ~quota
             ~sync_point:(sync_point rt ~n ~prebuilt ~warm ~on_warm i m)
             ();
           Runtime.retire_mutator rt m)
        : Sched.pid)
  done;
  if traced then Sched.set_on_switch sched (Some (on_switch s cost));
  let t_run = Unix.gettimeofday () in
  s.last.(0) <- t_run;
  s.last.(1) <- Gc.minor_words ();
  Sched.run sched;
  (* the last slice ends where Sched.run is deemed to end *)
  let t_end =
    if traced then begin
      close s cost;
      s.last.(0)
    end
    else Unix.gettimeofday ()
  in
  let result = Run_result.of_runtime ~workload:profile.Profile.name rt in
  {
    result;
    rt;
    wall = Unix.gettimeofday () -. t0;
    sched_wall = t_end -. t_run;
    steps = Sched.steps sched;
    cycles = !cycles;
    slices = s;
  }

let lap_secs t = Array.fold_left ( +. ) 0. t.slices.secs
