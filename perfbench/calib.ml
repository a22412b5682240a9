(* Host-speed reference.  Shared machines change speed
   by 10-40% from one minute to the next, which no number of repetitions
   inside one run averages away.  So every repetition is timed between two
   passes of a fixed loop of the kind of work the simulator does —
   effect-handler yield/resume between two coroutines, small allocations,
   hash-table updates — and its times are rescaled to a machine on which
   that loop takes [nominal_s].  The loop is this file's own code: no
   change to the program under test can move it. *)

open Effect
open Effect.Deep

type _ Effect.t += Ping : unit Effect.t

(* The loop's typical time on a 2-core shared Xeon VM, so rescaled
   times stay close to the measured ones. *)
let nominal_s = 0.048

let steps = 100_000

(* One timed pass, in seconds. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 1024 in
  let live = ref [] in
  let body id () =
    for i = 1 to steps do
      Hashtbl.replace h (((i * 7) + id) land 4095) i;
      live := (i, id) :: !live;
      if i land 255 = 0 then live := [];
      perform Ping
    done
  in
  let q : (unit, unit) continuation Queue.t = Queue.create () in
  let start f =
    match_with f ()
      {
        retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type a) (e : a Effect.t) ->
            match e with
            | Ping -> Some (fun (k : (a, unit) continuation) -> Queue.push k q)
            | _ -> None);
      }
  in
  start (body 0);
  start (body 1);
  while not (Queue.is_empty q) do
    continue (Queue.pop q) ()
  done;
  ignore (Sys.opaque_identity (h, !live));
  Unix.gettimeofday () -. t0

(* Factor turning seconds measured right after [sample] took [calib]
   into seconds at the reference speed. *)
let to_ref calib = nominal_s /. calib
