(* The benchmark's workloads.  Every one is the generational collector
   (the paper's subject) on a SPECjvm-like profile, one process with at
   most two domains.  [scale] sizes one repetition: a run repeats it
   until its time is up, so medians come from many repetitions.  The
   simulator workloads run at the smallest scale whose host-time split
   by layer matches that of [gcsim]'s default scale 1.0; dom-jack runs
   at 1.0 itself (perfbench/RATIONALE.md, "Repetition size").  The
   golden [Run_result] at the default seed is perfbench/expected/NAME.json
   (for dom-jack: the simulator run of the same parameters). *)

open Otfgc
module Profile = Otfgc_workloads.Profile
module Substrate = Otfgc_sched.Substrate

type t = {
  name : string;
  profile : Profile.t;
  scale : float;
  substrate : Substrate.kind;
}

let gc = Gc_config.generational ()
let default_seed = 42

let all =
  [
    { name = "sim-jack"; profile = Profile.jack; scale = 0.5; substrate = Sim };
    {
      name = "sim-anagram";
      profile = Profile.anagram;
      scale = 0.5;
      substrate = Sim;
    };
    {
      name = "dom-jack";
      profile = Profile.jack;
      scale = 1.0;
      substrate = Domains;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let is_sim w = w.substrate = Substrate.Sim

(* Armed at set-up on every run: the latency histograms the handshake
   metrics read.  They charge no simulated cost and never yield. *)
let arm rt = Telemetry.set_enabled (Runtime.telemetry rt) true
