(** A simulated persistent-memory region with a crash controller — the
    mmapped NVMM file of the paper (§4.2).

    Slots register their crash resets here; volatile state (DRAM replicas)
    compares a stamp with {!crash_count}.  {!crash} implements a full-system
    power failure;
    {!fence} commits the calling domain's pending write-backs;
    [runtime_evict_prob] simulates spontaneous cache eviction (an algorithm
    must tolerate *more* than it flushed becoming durable).

    Each domain keeps one persist record per region (its pending
    write-backs, in-flight line marks and deferred persists, as
    (slot, snapshot) pairs — no closure per flush).  When elision mode is on
    ([elide]), a {!fence} whose domain has nothing pending and a
    {!Slot.flush} of a clean line are free no-ops, counted in
    {!Stats.t.fence_elided} / {!Stats.t.flush_elided} — the redundant-persist
    elimination of Zuriel et al. / Cai et al.  See docs/MODEL.md. *)

type crash_policy =
  | Adversarial
      (** only writes covered by a completed flush + fence survive *)
  | Eviction of float
      (** each un-fenced write independently survives with probability [p] *)

type t

type line
(** A simulated cache line (exists only when [slots_per_line > 1]): slots
    carved from the same line share their write-back — a flush of a line
    already in flight is absorbed ([flush_coalesced]) — and their crash
    fate (one survival draw for all members). *)

type 'a entry = { v : 'a; ver : int; ep : int }
(** One immutable write, re-exported as {!Slot.entry}. *)

(** The record behind {!Slot.t}, declared here so that a pending
    write-back names its slot and snapshot without a closure.  Build and
    use slots through {!Slot} only. *)
type 'a slot = {
  region : t;
  uid : int;
  pair : int;
  line : line option;
  buffered : bool;
  home : int;
  current : 'a entry Atomic.t;
  persisted : 'a entry list Atomic.t;
      (** the media history: a Pareto front over (version high, epoch
          low), newest first, cut at the durable epoch — see
          docs/MODEL.md, "Media history bound" *)
  mutable lost : bool;
}

val create :
  ?track_slots:bool ->
  ?runtime_evict_prob:float ->
  ?seed:int ->
  ?elide:bool ->
  ?epoch_len:int ->
  ?slots_per_line:int ->
  unit ->
  t
(** [track_slots] (default [true]): register slots for crash processing.
    Benchmarks disable it — they never crash and must not retain every node
    ever allocated.  [elide] (default [false]): enable flush/fence elision;
    off preserves the exact charged costs of the paper's transformations.
    [epoch_len] (default [1]): deferred persists per buffered epoch; at [1]
    every buffered persist advances immediately, reproducing strict Mirror
    persist counts exactly.  [slots_per_line] (default [1]): slots carved
    per simulated cache line; at the default the region is slot-granular
    and behaves bit-identically to the historical model.
    @raise Invalid_argument when [epoch_len < 1] or [slots_per_line < 1]. *)

val is_down : t -> bool
(** True between a {!crash} and {!mark_recovered}. *)

val id : t -> int
(** Region identity carried on access events. *)

val crash_count : t -> int
(** Crashes so far: volatile state stamped with an older count was lost
    and must be recovered before use. *)

val set_elide : t -> bool -> unit
(** Toggle flush/fence elision at run time. *)

val elision : t -> bool
(** Whether elision mode is on. *)

val check_up : t -> unit
(** @raise Invalid_argument when the region is down (access before
    recovery). *)

val tracks_slots : t -> bool
(** Whether slots register for crash processing ([track_slots]). *)

val register_slot : t -> ?line:line -> (persist_first:bool -> unit) -> unit
(** Register a slot's crash reset: optionally persist its current content,
    then reset its cache view to the durable state.  A member of [line]
    shares the line's one survival draw.  Callers register only on regions
    that {!tracks_slots}. *)

(** {1 Slots' media and write-backs}

    The write-back machinery behind {!Slot}: each domain keeps one persist
    record per region (pending write-backs, in-flight line marks, deferred
    persists), and a write-back is a (slot, snapshot) pair in it. *)

val announce_slot : 'a slot -> Hooks.access_op -> seq:int -> unit
(** Announce one access event attributed to a slot ({!Slot.announce}). *)

val charge_remote : 'a slot -> unit
(** Charge the NUMA remote-line surcharge when the calling thread is not
    the slot's home (a no-op at the default [numa_remote_ns = 0]). *)

val persist : 'a slot -> 'a entry -> unit
(** Offer a write-back to the slot's media history (monotone: a dominated
    offer is dropped). *)

val restorable : int -> 'a entry list -> 'a entry option
(** The entry of a media history that a crash at the given durable epoch
    restores. *)

val offer : durable:int -> 'a entry list -> 'a entry -> 'a entry list option
(** {!persist}'s rule on a bare history ({!Slot.offer}). *)

val flush_elided : 'a slot -> int -> unit
(** Count and announce a flush skipped by elision (the version found
    durable). *)

val flush_charged : 'a slot -> unit
(** The persist event and cost of a charged [clwb]. *)

val write_back : 'a slot -> 'a entry -> unit
(** Record the write-back of a snapshot in the calling domain's pending
    set (the first touch of a down region raises) and announce the
    flush. *)

(** {1 Cache lines}

    The line map (line granularity, see docs/MODEL.md): when the region is
    created with [slots_per_line > 1], the allocator can carve several
    slots from one simulated cache line.  Line-mates share dirty/clean
    state for write-back purposes — flushing a line that a previous,
    un-fenced flush already put in flight is free — and share one crash
    fate.  At the default [slots_per_line = 1] no lines exist and every
    function below degenerates ([place] returns [None]). *)

val slots_per_line : t -> int

val place : t -> line option
(** Carve a fresh line and claim its first slot ([None] when the region is
    slot-granular). *)

val place_near : t -> line option -> line option
(** Claim a slot on the given line if it has room, else carve a fresh
    line — the co-location primitive: an object's fields placed near each
    other share one write-back. *)

val line_uid : line -> int

val line_home : line -> int
(** The line's home domain: the logical thread ({!Hooks.tid}) that carved
    it.  Accesses from other threads pay the NUMA remote-line surcharge
    when {!Latency.numa_remote_ns} is non-zero. *)

val line_add_member : 'a slot -> unit
(** Register a slot with its line, if it has one: the line's pending flush
    (or an eviction of the line) writes back the slot's current content.
    Its crash reset goes through {!register_slot}. *)

val line_persist_members : line -> unit
(** Write back every member's current content (runtime eviction of the
    whole line). *)

val line_in_flight : t -> line -> bool
(** Is the line in flight for the calling domain (flushed, not yet
    fenced)? *)

val mark_line_flushed : t -> line -> unit
(** Mark the line flushed by the calling domain.  The first mark records
    one pending write-back covering the whole line; later marks before the
    fence are the coalescing no-op.  {!fence} and {!crash} clear the
    in-flight marks. *)

val fence : t -> unit
(** [sfence]: commit the calling domain's pending write-backs.  Charges the
    fence cost — unless elision is on and nothing is pending, in which case
    it is a free no-op counted as [fence_elided]. *)

val pending_count : t -> int
(** Total pending write-backs across all domains (introspection). *)

val evict_hit : t -> bool
(** Draw a runtime eviction of the line just written: true with the
    region's [runtime_evict_prob] (no draw at all when it is [0]). *)

(** {1 Buffered persistence (the epoch clock)}

    The third discipline (after the strict transformations and elision):
    buffered slots record their persists into the open epoch's per-domain
    deferred set instead of flushing, and a nonblocking advancer commits
    whole epochs at once — flush the newest snapshot per dirty slot, one
    fence, bump the persistent durable-epoch slot, then cut the flushed
    slots' media histories at the new durable epoch.  Recovery keeps
    exactly the writes tagged [<= durable_epoch]: a consistent cut at an
    epoch boundary, trading strict durability for bounded staleness.  See
    docs/MODEL.md, "Buffered persistence semantics". *)

val cur_epoch : t -> int
(** The open epoch (buffered writes tag with it).  Starts at [1]. *)

val durable_epoch : t -> int
(** The persistent durable-epoch slot: everything tagged [<= durable_epoch]
    survives any crash.  Starts at [0]; survives crashes. *)

val epoch_len : t -> int
val set_epoch_len : t -> int -> unit
(** Deferred persists per epoch. @raise Invalid_argument when [< 1]. *)

val deferred_count : t -> int
(** Deferred records not yet committed, across all domains
    (introspection). *)

val record_deferred : 'a slot -> 'a entry -> unit
(** Record one deferred persist of the slot's snapshot (captured at record
    time; its epoch tag decides which advance commits it); triggers a
    synchronous epoch advance once the open epoch holds [epoch_len]
    records.  Used by {!Slot.persist_deferred}. *)

val help_advance : t -> unit
(** Close the open epoch and commit everything up to it — flush, one
    fence, durable-epoch bump, cut of the flushed fronts.  Nonblocking: if
    another advance is in flight this returns immediately (the straggler
    epoch is drained by the next advance). *)

val quiesce : t -> unit
(** Drive advances until nothing deferred is outstanding and the durable
    epoch has caught up.  A no-op on regions that never deferred anything,
    so strict cost models are unaffected. *)

val crash : ?policy:crash_policy -> t -> unit
(** Simulate a full-system crash.  Callers must quiesce other domains first
    (the deterministic scheduler can crash mid-operation safely). *)

val begin_recovery : t -> bool
(** Open a recovery session on a crashed region and return whether the
    {e previous} recovery was interrupted mid-way (detected through the
    persistent recovery epoch: odd = a recovery started but never
    finished).  The first call after a {!crash} flips the epoch to odd
    with recovery-write (immediately durable) semantics; further calls in
    the same session return the same verdict, so the several tracers of
    one recovery share one epoch transition.  On a region that is up this
    is a pure GC pass: the epoch is untouched and the result is [false]. *)

val recovery_epoch : t -> int
(** The persistent epoch counter.  Even = consistent; odd = a recovery is
    (or was, if a crash intervened) in progress. *)

val recovery_interrupted : t -> bool
(** The verdict of the current/most recent session's first
    {!begin_recovery}. *)

val mark_recovered : t -> unit
(** Recovery complete; normal operation may resume.  Finalizes the
    recovery epoch back to even. *)
