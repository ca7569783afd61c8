(** Descriptors and machinery for every panel of the paper's Figures 6
    and 7.  See DESIGN.md §4 for the panel-by-panel index and
    EXPERIMENTS.md for paper-vs-measured notes. *)

type algo =
  | Orig_dram
  | Orig_nvmm
  | Izraelevitz
  | Nvtraverse
  | Mirror
  | Mirror_nvmm
  | Soft
  | Link_free
  | Cmap

val algo_name : algo -> string

val make_set :
  region:Mirror_nvm.Region.t ->
  Mirror_dstruct.Sets.ds ->
  algo ->
  Mirror_dstruct.Sets.pack option
(** [None] when the combination does not exist (SOFT/Link-Free are
    list+hash designs; Cmap is a hash map). *)

type axis = Threads | Size | Updates

type panel = {
  id : string;
  descr : string;
  ds : Mirror_dstruct.Sets.ds;
  axis : axis;
  threads : int;
  range : int;
  updates : int;
  algos : algo list;
}

type config = {
  seconds : float;
  threads_axis : int list;
  list_sizes : int list;
  big_sizes : int list;
  updates_axis : int list;
  list_range : int;
  big_range : int;
  huge_range : int;
  llc_bytes : int;
}

val quick : config
val full : config

val figure6 : config -> panel list
val figure7 : config -> panel list
val all_panels : config -> panel list

(** Every panel runner returns {!Row.t} rows; each doc below names the
    row's [panel] family and its key and metric columns, which are also
    the archived CSV's column order. *)

val run_panel : ?progress:(string -> unit) -> config -> panel -> Row.t list
(** Panel [figure]: one row per (x-value, algorithm).  Keys [panel], [ds],
    [algo], [x], [threads]; metrics [mops] (measured), [modeled_mops],
    then per-op [nvm_reads], [nvm_writes], [flushes], [fences],
    [flushes_elided], [fences_elided], [epoch_advances],
    [fences_batched], [writes_deferred] (each suffixed [_per_op]). *)

(** {1 The elision panel}

    Flush/fence elision on vs off for the Mirror-transformed structures,
    measured under the deterministic scheduler (where the helping and retry
    paths that elision targets actually fire on a one-core box).  Counts
    are exact and deterministic; elision changes no control flow, so the
    off/on rows of a structure describe the same executions and
    [charged_off = charged_on + elided_on] holds per event kind. *)

val elision_structures : string list
(** ["list"; "hash"; "bst"; "skiplist"; "queue"; "stack"; "pqueue";
    "counter"]. *)

val run_elision_panel :
  ?threads:int -> ?ops_per_task:int -> ?seeds:int -> unit -> Row.t list
(** Panel [elision]: two rows (elide off, elide on) per structure, in
    {!elision_structures} order.  Keys [ds], [elide]; metrics [ops]
    (summed over seeds), then per-op [flushes], [fences],
    [flushes_elided], [fences_elided], [helps] (charged counts). *)

(** {1 The buffered panel}

    Epoch-batched persistence against strict Mirror: the same contended
    schedsim workload per (structure, threads) cell, run under strict
    Mirror and under the buffered discipline at several epoch lengths.
    Counts are exact and deterministic; the open epoch is drained before
    counters are read so the deferred tail is charged to its run. *)

val buffered_structures : string list
(** ["list"; "hash"; "queue"; "stack"]. *)

val run_buffered_panel :
  ?threads_points:int list ->
  ?epoch_lens:int list ->
  ?ops_per_task:int ->
  ?seeds:int ->
  unit ->
  Row.t list
(** Panel [buffered]: one row per (structure, threads, epoch length),
    structures in {!buffered_structures} order (defaults: 1/2/4/8/16
    threads, epoch lengths 1/16/256, 40 ops per fiber, 4 seeds).  Keys
    [ds], [threads], [epoch_len]; metrics [ops], [strict_fences_per_op]
    (the strict Mirror baseline), [fences_per_op], [fence_reduction]
    (strict / buffered fences), then per-op [flushes], [epoch_advances],
    [fences_batched], [writes_deferred]. *)

(** {1 The line panel}

    Cache-line coalescing of flushes: insert-only Mirror workloads over
    disjoint per-fiber key stripes (so every operation takes the
    allocating path), swept over {!line_slots} slots per simulated cache
    line.  At slots=1 — the seed's slot-granular model and every
    region's default — each repp write-back is a separate charged
    flush; wider lines let [make_near] placement carve fresh fields
    from the destination's line so the per-line dirty map coalesces
    them into one charged flush.  Counts are exact and deterministic. *)

val line_slots : int list
(** [[1; 4; 8]] — the sweep, and the exact vocabulary the
    [--slots-per-line] flags of bench/main.exe and bin/mcheck.exe
    accept (both exit 2 listing it on anything else). *)

val line_structures : string list
(** ["list"; "bst"; "skiplist"] — the multi-field-insert structures. *)

val run_line_panel :
  ?slots:int list ->
  ?threads:int ->
  ?ops_per_task:int ->
  ?seeds:int ->
  unit ->
  Row.t list
(** Panel [line]: one row per (structure, slots-per-line) in
    {!line_structures} x [slots] order (defaults: the {!line_slots}
    sweep, 2 fibers, 200 inserts per fiber, 4 seeds — the fiber count is
    deliberately low because every fiber timeshares one simulated core,
    so each fence drains the whole pending set and fragments the other
    fibers' coalescing windows).  Keys [ds], [slots_per_line]; metrics
    [ops], then per-op [flushes], [coalesced] (uncharged), [fences],
    [baseline_flushes] (at slots=1), and [flush_reduction] (baseline /
    charged flushes).  Each structure's slots=1 measurement is always
    taken and reused as the baseline of all its rows, whether or not
    [1] is in [slots]. *)

(** {1 Recovery panel} *)

val run_recovery_panel :
  ?shapes:Mirror_nvmheap.Shapes.shape list ->
  ?live_points:int list ->
  ?domain_points:int list ->
  unit ->
  Row.t list
(** Panel [recovery]: parallel heap-recovery latency over live-object
    count x worker count (defaults: forest shape, 10k and 100k live
    objects, 1/2/4 workers).  Keys [shape], [live], [garbage]
    (unreachable blocks the sweep reclaims), [domains]; metrics
    [wall_ms] (real [Domain.spawn] workers), [model_ms] (critical-path
    worker cost priced at the configured NVMM read latency, from a
    deterministic-scheduler run), [marked], [swept], [steals], and
    [speedup] (the [domains=1] model over this row's, so [domain_points]
    must include 1). *)

(** {1 Alloc panel}

    Allocator throughput on an alloc/free-heavy workload: the sharded
    per-thread arenas against the old global-lock allocator, under the
    deterministic scheduler.  [modeled_mops] is a deterministic model,
    not wall clock: the run's charged NVMM persist events are priced at
    the configured latencies; under [Global_lock] the whole priced cost
    is serial (every persist happens holding the allocator lock), under
    [Sharded] it divides across threads. *)

val alloc_policy_name : Mirror_nvmheap.Heap.policy -> string

val run_alloc_panel :
  ?threads_points:int list ->
  ?ops_per_task:int ->
  ?seeds:int ->
  ?base_op_ns:int ->
  unit ->
  Row.t list
(** Panel [alloc]: two rows (lock, sharded) per thread count, in
    [threads_points] order (default 1/2/4/8/16 logical threads, 400 ops
    per fiber, 4 seeds, [base_op_ns] = 20 of volatile bookkeeping per
    operation).  Keys [policy], [threads]; metrics [ops] (alloc + free),
    [modeled_mops], [wall_ms] (the schedsim runs), [carves],
    [remote_frees], [drains], per-op [flushes] and [fences], and
    [speedup] (modeled throughput over the lock row's). *)

(** {1 Scaling panel}

    The 8/16-thread scaling tier: the elision panel's contended drivers
    run at every point of the extended thread axis, with deterministic
    Amdahl-priced throughput.  The structures are lock-free, so the
    priced persist cost divides across threads; contention shows up as
    per-op charged-count inflation (retries, helping) and as NUMA
    remote-line traffic — the panel runs with the remote-line knob on
    ([numa_remote_ns], restored afterwards), which adds pricing but no
    control flow, so all counts stay deterministic.  [wall_ms] is the
    honest timeshared wall clock of the schedsim runs (every fiber
    shares one OS thread — simulation cost, not parallel speedup). *)

val scaling_structures : string list
(** ["list"; "hash"; "queue"; "counter"] — two set shapes plus the two
    contention extremes (mixed queue traffic, a single hot word). *)

val run_scaling_panel :
  ?structures:string list ->
  ?threads_points:int list ->
  ?ops_per_task:int ->
  ?seeds:int ->
  ?base_op_ns:int ->
  ?numa_remote_ns:int ->
  unit ->
  Row.t list
(** Panel [scaling]: one row per (structure, thread count), structures
    outer, in [threads_points] order (default 1/2/4/8/16 logical
    threads, 40 ops per fiber, 4 seeds, [base_op_ns] = 40,
    [numa_remote_ns] = 150).  Keys [ds], [threads]; metrics [ops],
    [modeled_mops] (Amdahl-priced), [speedup] (over the structure's
    1-thread row, always measured), [remote_per_op] (NUMA remote-line
    accesses), [wall_ms]. *)
