(** Counter deltas priced by the repository's deterministic device model
    ({!Mirror_harness.Runner.modeled_ns} over {!Mirror_nvm.Latency.default};
    latency injection stays off). *)

open Mirror_nvm

let per_op (s : Stats.t) ops : Mirror_harness.Runner.per_op =
  let f x = float_of_int x /. float_of_int (max 1 ops) in
  {
    dram_reads = f s.dram_read;
    nvm_reads = f s.nvm_read;
    nvm_writes = f (s.nvm_write + s.nvm_cas);
    flushes = f s.flush;
    fences = f s.fence;
    flushes_elided = f s.flush_elided;
    fences_elided = f s.fence_elided;
    epoch_advances = f s.epoch_advance;
    fences_batched = f s.fence_batched;
    writes_deferred = f s.writes_deferred;
  }

(** Modeled ns per op, the model's fixed per-op CPU term included. *)
let ns s ops = Mirror_harness.Runner.modeled_ns (per_op s ops)

(** Modeled device ns per op: {!ns} without the fixed per-op CPU term. *)
let device_ns s ops = ns s ops -. ns (Stats.zero ()) 1
