(* Micro-benchmarks of single layers, timed from outside through public
   calls on warm state.  Each is repeated and summarised as the median
   of its samples plus their spread (interquartile range over median). *)

open Otfgc
module Sched = Otfgc_sched.Sched
module Rng = Otfgc_support.Rng
module Heap = Otfgc_heap.Heap

type result = { value : float; spread : float; words : float }

(* Calls of [f] per sample: enough for a sample to last about a
   millisecond, so the clock's microsecond resolution never shows. *)
let batch_for f =
  let rec grow n =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      f ()
    done;
    if Unix.gettimeofday () -. t0 >= 1e-3 || n >= 1 lsl 20 then n
    else grow (2 * n)
  in
  grow 1

(* [samples] timings of [f] after a warm-up batch; value = median time
   per call, in units of [unit_s]. *)
let measure ?(samples = 15) ~unit_s f =
  let batch = batch_for f in
  let times = ref [] and words = ref [] in
  for _ = 1 to samples do
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let dw = Gc.minor_words () -. w0 in
    times := (dt /. float_of_int batch /. unit_s) :: !times;
    words := (dw /. float_of_int batch) :: !words
  done;
  {
    value = Summary.median !times;
    spread = Summary.spread !times;
    words = Summary.median !words;
  }

(* One yield and resume of an otherwise empty process under the driver's
   scheduling policy: two processes ping-pong [n] yields each. *)
let sched_yield ~seed =
  let n = 50_000 in
  let one () =
    let s =
      Sched.create ~policy:(Sched.random_policy (Rng.make seed)) ()
    in
    for i = 0 to 1 do
      ignore
        (Sched.spawn s ~name:(Printf.sprintf "p%d" i) (fun () ->
             for _ = 1 to n do
               Sched.yield ()
             done)
          : Sched.pid)
    done;
    Sched.run s
  in
  (* per yield, not per run *)
  let r = measure ~samples:15 ~unit_s:(1e-9 *. float_of_int (2 * n)) one in
  { r with words = r.words /. float_of_int (2 * n) }

let oracle_garbage st =
  measure ~unit_s:1e-3 (fun () -> ignore (Oracle.garbage st : int list))

let oracle_reachable st =
  measure ~unit_s:1e-3 (fun () ->
      ignore (Oracle.reachable st : (int, unit) Hashtbl.t))

let census_row st =
  measure ~unit_s:1e-3 (fun () -> Observatory.sample_now st)

(* Allocate and free one small object; leaves the free lists as they
   were only in aggregate, so run it on a heap no run will touch again. *)
let heap_alloc_free heap =
  measure ~samples:21 ~unit_s:1e-9 (fun () ->
      match Heap.alloc heap ~size:32 ~n_slots:2 ~color:Otfgc_heap.Color.C0 with
      | Some a -> Heap.free heap a
      | None -> failwith "heap.alloc_free: heap exhausted")
