(** A simulated persistent-memory region with a crash controller.

    The region plays the role of the mmapped NVMM file of the paper (§4.2).
    Persistent slots ({!Slot}) register their crash resets here; volatile
    state (e.g. the DRAM replica of a [Patomic]) compares a stamp with
    {!crash_count} instead of registering anything.  [crash] then implements
    a full-system power failure:

    - every cache line flushed but not yet fenced may or may not have reached
      the memory (decided by the {!crash_policy});
    - every dirty, unflushed line is lost (adversarial) or survives with the
      eviction probability (lenient);
    - all volatile state is invalidated (the crash count moves).

    A region can also simulate spontaneous cache eviction at run time
    ([runtime_evict_prob]): real caches write dirty lines back whenever they
    please, so an algorithm must be correct even when *more* than it flushed
    gets persisted.

    Write-backs are tracked in a **per-domain** persist record: [sfence]
    drains the write-backs recorded by the calling domain (on hardware, a
    fence orders the issuing CPU's own [clwb]s; under the deterministic
    scheduler all logical threads share one domain and hence one record,
    which recovers the seed's global-drain behavior exactly).  A
    write-back is a (slot, snapshot) pair, so recording one allocates
    that pair and nothing else.  When the region's elision
    mode is on, a fence that finds its domain's set empty is a no-op — it is
    counted as [fence_elided] and charges no latency (Cai et al., *Fast
    Nonblocking Persistence*: fences can be elided when no write-back is
    pending). *)

type crash_policy =
  | Adversarial
      (** nothing survives except writes covered by a completed flush+fence *)
  | Eviction of float
      (** each un-fenced write independently survives with probability [p] *)

type 'a entry = { v : 'a; ver : int; ep : int }  (** see {!Slot.entry} *)

(** A simulated cache line: slots carved from the same line share their
    write-back and their crash fate.  [l_members] holds the member slots
    (the line's write-back persists all of them); [l_resets] holds the
    members' crash resets, applied with a single shared survival draw so
    a lost line loses every member together.  Members are appended at
    slot-allocation time and never removed. *)
type line = {
  l_uid : int;
  l_home : int;  (** home domain: the logical thread that carved the line *)
  mutable l_filled : int;  (** slots carved so far (≤ [slots_per_line]) *)
  mutable l_members : member list;
  mutable l_resets : (persist_first:bool -> unit) list;
  mutable l_mark : int;
      (** the in-flight stamp of the persist record that last flushed the
          line: in flight for that record while the stamp is current *)
}

and member = M : 'a slot -> member

and t = {
  id : int;  (** key of each domain's one-entry persist-record cache *)
  slots_per_line : int;
      (** slots carved per simulated cache line; [1] = the historical
          slot-granular model (no lines exist, nothing coalesces) *)
  mutable lines : line list;
      (** every line carved from this region, for crash processing (gated
          on [track_slots], like [slot_resets]) *)
  mutable slot_resets : (persist_first:bool -> unit) list;
      (** one closure per registered persistent slot: optionally persist the
          current (cache) value, then reset the cache view to the persisted
          value *)
  mutex : Mutex.t;
  mutable down : bool;
  track_slots : bool;
      (** benches disable registration: they never crash and must not retain
          every node ever allocated *)
  mutable records : record list;
      (** every domain's persist record for this region, for crash
          processing and introspection *)
  mutable elide : bool;
      (** flush/fence elision mode: skip (and count as elided) flushes of
          clean lines and fences with nothing pending *)
  rng : Random.State.t;
  mutable runtime_evict_prob : float;
  mutable crashes : int;
  mutable recovery_epoch : int;
      (** persistent recovery-progress slot (recovery-write semantics: every
          update is immediately durable, so a crash never tears it — the
          region compiles before {!Slot}, hence a plain field rather than a
          slot).  Even = the last recovery ran to completion; odd = a
          recovery started and has not finished.  An odd value observed by
          {!begin_recovery} after a crash means the previous recovery was
          itself interrupted and its partial work must not be trusted. *)
  mutable in_recovery_session : bool;
      (** volatile: true between the first {!begin_recovery} after a crash
          and {!mark_recovered}, so the several tracers of one recovery
          session share a single epoch transition.  Cleared by {!crash} —
          a power failure forgets that a recovery was underway, which is
          exactly what makes the persistent epoch necessary. *)
  mutable last_interrupted : bool;
      (** what the session's first {!begin_recovery} found (introspection) *)
  (* -- buffered persistence (the epoch clock) -- *)
  mutable epoch_len : int;
      (** deferred persists per epoch; [1] makes every buffered persist
          advance immediately (strict-equivalent costs) *)
  mutable cur_epoch : int;  (** the open epoch; buffered writes tag with it *)
  mutable durable_epoch : int;
      (** persistent durable-epoch slot (recovery-write semantics, like
          [recovery_epoch]: the bump is a single-word store ordered after
          the advance's fence, so a crash never tears it).  Recovery keeps
          exactly the writes tagged [<= durable_epoch]. *)
  mutable cur_count : int;  (** deferred persists recorded in [cur_epoch] *)
  batch : wbs;
      (** the advancer's working set: the deferred write-backs it took,
          sorted by slot; owned by whoever holds [advancing] and emptied
          when it lets go *)
  advancing : bool Atomic.t;
      (** advance claim flag: help-advance is nonblocking — a thread that
          finds an advance in flight just returns (buffered completion
          never waits for durability) *)
}

(* The record behind {!Slot.t} (documented there), declared here so that
   a write-back names its slot and snapshot without a closure. *)
and 'a slot = {
  region : t;
  uid : int;
  pair : int;
  line : line option;
  buffered : bool;
  home : int;
  current : 'a entry Atomic.t;
  persisted : 'a entry list Atomic.t;
  mutable lost : bool;
}

(** One write-back: the slot and the snapshot to persist (a charged flush
    or a deferred persist), or a whole line.  [Nil] fills unused cells. *)
and wb = Nil | Line of line | Wb : 'a slot * 'a entry -> wb

(** A single-writer growable array of write-backs: cells [0, len). *)
and wbs = { mutable cells : wb array; mutable len : int }

(** One domain's persist state for one region.  [pending] and [stamp] are
    only touched by the owning domain (and by a quiesced crash);
    [deferred] is also drained by other domains' advances, so it is
    appended and drained under the region mutex. *)
and record = {
  owner : int;  (** the owning domain's id *)
  pending : wbs;  (** write-backs flushed and not yet fenced *)
  deferred : wbs;  (** buffered persists not yet committed *)
  mutable stamp : int;
      (** the mark this record leaves on the lines it has in flight;
          renewed by the fence that drains them (and by a crash) *)
}

let next_id = Atomic.make 0
let next_line_uid = Atomic.make 0
let next_stamp = Atomic.make 0
let fresh_stamp () = Atomic.fetch_and_add next_stamp 1
let empty_wbs () = { cells = Array.make 8 Nil; len = 0 }

let create ?(track_slots = true) ?(runtime_evict_prob = 0.0) ?(seed = 0xC0FFEE)
    ?(elide = false) ?(epoch_len = 1) ?(slots_per_line = 1) () =
  if epoch_len < 1 then invalid_arg "Mirror_nvm.Region.create: epoch_len < 1";
  if slots_per_line < 1 then
    invalid_arg "Mirror_nvm.Region.create: slots_per_line < 1";
  {
    id = Atomic.fetch_and_add next_id 1;
    slots_per_line;
    lines = [];
    slot_resets = [];
    mutex = Mutex.create ();
    down = false;
    track_slots;
    records = [];
    elide;
    rng = Random.State.make [| seed |];
    runtime_evict_prob;
    crashes = 0;
    recovery_epoch = 0;
    in_recovery_session = false;
    last_interrupted = false;
    epoch_len;
    cur_epoch = 1;
    durable_epoch = 0;
    cur_count = 0;
    batch = empty_wbs ();
    advancing = Atomic.make false;
  }

let is_down t = t.down
let crash_count t = t.crashes
let set_elide t b = t.elide <- b
let elision t = t.elide
let id t = t.id
let slots_per_line t = t.slots_per_line

(* Announce one structured access event by the acting thread/domain
   (gated: call sites check [Hooks.access_on] first so the uninstrumented
   path pays one load). *)
let access op ~region ~slot ~pair ~line seq =
  Hooks.access_point
    {
      Hooks.a_op = op;
      a_slot = slot;
      a_pair = pair;
      a_region = region;
      a_domain = (Domain.self () :> int);
      a_tid = Hooks.tid ();
      a_seq = seq;
      a_line = line;
      a_protocol = Hooks.in_protocol ();
    }

(* Fences and epoch events have no slot identity. *)
let announce_region t op seq =
  access op ~region:t.id ~slot:(-1) ~pair:(-1) ~line:(-1) seq

let check_up t =
  if t.down then
    invalid_arg
      "Mirror_nvm.Region: access to a crashed region before recovery"

let tracks_slots t = t.track_slots

(* A line member's reset joins its line's, to share one survival draw. *)
let register_slot t ?line reset =
  Mutex.lock t.mutex;
  (match line with
  | Some l -> l.l_resets <- reset :: l.l_resets
  | None -> t.slot_resets <- reset :: t.slot_resets);
  Mutex.unlock t.mutex

(* -- the persist record ---------------------------------------------------- *)

(* The calling domain's record for [t].  The hot path (flush/fence) runs
   on every instrumented access, so the lookup is a one-entry cache: a DLS
   cell remembering the last region this domain touched, making the
   common case one DLS load plus an int compare.  A domain alternating
   between regions finds its record in the region's list (one per domain
   that touched it; a domain's own registration precedes its lookups, so
   an unlocked read sees it); a genuinely first touch registers one.
   The region owns its records, so they die with it.

   Registration links the record into the region under [t.mutex], and
   refuses a region that is down: [crash] holds the same mutex while
   draining the records, so a first touch racing a crash either lands
   before the drain (and is drained) or observes [down] and raises — it
   can never register an orphan record whose stale write-backs a
   post-recovery fence would apply. *)
type cache = { mutable c_id : int; mutable c_rec : record }

let fresh_record owner =
  let stamp = fresh_stamp () in
  { owner; pending = empty_wbs (); deferred = empty_wbs (); stamp }

let cache_key =
  Domain.DLS.new_key (fun () -> { c_id = -1; c_rec = fresh_record (-1) })

let mine t =
  let c = Domain.DLS.get cache_key in
  if c.c_id = t.id then c.c_rec
  else begin
    let me = (Domain.self () :> int) in
    let r =
      match List.find_opt (fun r -> r.owner = me) t.records with
      | Some r -> r
      | None ->
          let r = fresh_record me in
          Mutex.protect t.mutex (fun () ->
              check_up t;
              t.records <- r :: t.records);
          r
    in
    c.c_id <- t.id;
    c.c_rec <- r;
    r
  end

let push s w =
  if s.len = Array.length s.cells then begin
    let cells = Array.make (2 * s.len) Nil in
    Array.blit s.cells 0 cells 0 s.len;
    s.cells <- cells
  end;
  s.cells.(s.len) <- w;
  s.len <- s.len + 1

(* Hand every write-back to [f], newest first, clearing each cell first so
   a drained array keeps nothing alive. *)
let drain s f =
  for i = s.len - 1 downto 0 do
    let w = s.cells.(i) in
    s.cells.(i) <- Nil;
    f w
  done;
  s.len <- 0

(* -- slots' media --------------------------------------------------------- *)

let announce_slot s op ~seq =
  let line = match s.line with Some l -> l.l_uid | None -> -1 in
  access op ~region:s.region.id ~slot:s.uid ~pair:s.pair ~line seq

(* [covers e front]: some entry of [front] dominates [e] ([ver >=] and
   [ep <=]).  Only the entries with [ver >= e.ver] — a prefix — can. *)
let rec covers e = function
  | p :: rest when p.ver >= e.ver -> p.ep <= e.ep || covers e rest
  | _ -> false

(* The front down to its first entry at or below [de]: that entry is the
   only one of the durable suffix a crash can restore, now or after any
   later advance ([durable_epoch] never decreases).  The front itself
   when there is nothing to drop. *)
let rec cut de = function
  | p :: rest as front ->
      if p.ep > de then
        let kept = cut de rest in
        if kept == rest then front else p :: kept
      else if rest == [] then front
      else [ p ]
  | [] -> []

(* Skip the entries [e] dominates once the newer ones are behind: they are
   the ones with [ep >= e.ep] at the head of the rest. *)
let rec evict ep = function
  | p :: rest when p.ep >= ep -> evict ep rest
  | rest -> rest

let rec restorable de = function
  | p :: rest -> if p.ep <= de then Some p else restorable de rest
  | [] -> None

exception Dominated

(* One pass over the front: the entries newer than [e] stay ahead of it,
   [e] evicts the entries it dominates, and the result is cut at [de].
   Raises [Dominated] when the front already dominates [e] — checked to
   the end even past the cut, so the answer is the uncut front's. *)
let rec rebuild de e = function
  | p :: rest when p.ver > e.ver ->
      if p.ep <= e.ep then raise_notrace Dominated
      else if p.ep > de then p :: rebuild de e rest
      else if covers e rest then raise_notrace Dominated
      else [ p ] (* [e] falls below the restorable entry: cut with it *)
  | rest ->
      if covers e rest then raise_notrace Dominated
      else if e.ep <= de then [ e ]
      else e :: cut de (evict e.ep rest)

let offer ~durable front e =
  match rebuild durable e front with
  | front -> Some front
  | exception Dominated -> None

(* Write-backs stay monotone per (version, epoch): an offer is dropped when
   the front already dominates it; otherwise it joins the front and evicts
   the entries it dominates.  On strict slots (all [ep = 0]) this is
   exactly the old max-version rule. *)
let rec persist s e =
  let old = Atomic.get s.persisted in
  match rebuild s.region.durable_epoch e old with
  | front ->
      if not (Atomic.compare_and_set s.persisted old front) then persist s e
  | exception Dominated -> ()

(* The advance's cut of a committed front at the new durable epoch; a
   concurrent write-back may replace the front under it, so retry. *)
let rec recut s de =
  let old = Atomic.get s.persisted in
  let front = cut de old in
  if front != old && not (Atomic.compare_and_set s.persisted old front) then
    recut s de

(* NUMA accounting: a charged NVMM access whose memory is homed on another
   domain pays the remote-line surcharge.  With the knob at its default 0
   this is a single int load and comparison — no counter moves, so every
   uniform-memory count stays bit-identical. *)
let charge_remote s =
  if Latency.numa_remote_ns () > 0 && Hooks.tid () <> s.home then begin
    let st = Stats.get () in
    st.Stats.nvm_remote <- st.Stats.nvm_remote + 1;
    Latency.remote ()
  end

(* A redundant write-back skipped under elision, announced with the
   version found durable. *)
let flush_elided s seq =
  Hooks.persist_point Hooks.Flush_elided;
  let st = Stats.get () in
  st.Stats.flush_elided <- st.Stats.flush_elided + 1;
  if !Hooks.access_on then announce_slot s Hooks.A_flush_elided ~seq

(* The persist event and cost of a charged [clwb]. *)
let flush_charged s =
  Hooks.persist_point Hooks.Flush;
  let st = Stats.get () in
  st.Stats.flush <- st.Stats.flush + 1;
  Latency.flush ();
  charge_remote s

(* Record [w] in the calling domain's pending set and announce it. *)
let pend s w seq =
  push (mine s.region).pending w;
  if !Hooks.access_on then announce_slot s Hooks.A_flush ~seq

let write_back s e = pend s (Wb (s, e)) e.ver

(** Write back every member's current content — what draining the line's
    pending flush (or a runtime eviction of the line) does. *)
let line_persist_members l =
  List.iter (fun (M s) -> persist s (Atomic.get s.current)) l.l_members

(* Apply one write-back: the snapshot it carries, or the line members'
   current content. *)
let apply = function
  | Wb (s, e) -> persist s e
  | Line l -> line_persist_members l
  | Nil -> ()

(* -- cache lines ---------------------------------------------------------- *)

(** Carve a fresh cache line and claim its first slot.  [None] when the
    region is slot-granular ([slots_per_line = 1]): no lines exist, every
    path below degenerates to the historical behavior. *)
let place t =
  if t.slots_per_line <= 1 then None
  else begin
    let l =
      {
        l_uid = Atomic.fetch_and_add next_line_uid 1;
        l_home = Hooks.tid ();
        l_filled = 1;
        l_members = [];
        l_resets = [];
        l_mark = -1;
      }
    in
    if t.track_slots then begin
      Mutex.lock t.mutex;
      t.lines <- l :: t.lines;
      Mutex.unlock t.mutex
    end;
    Some l
  end

(** Claim a slot on [near]'s line if it has room, else carve a fresh line —
    the allocator's co-location primitive: an object's fields placed near
    each other share one write-back. *)
let place_near t near =
  match near with
  | Some l when t.slots_per_line > 1 ->
      Mutex.lock t.mutex;
      let ok = l.l_filled < t.slots_per_line in
      if ok then l.l_filled <- l.l_filled + 1;
      Mutex.unlock t.mutex;
      if ok then Some l else place t
  | _ -> place t

let line_uid l = l.l_uid
let line_home l = l.l_home

(** Register a slot with its line, if it has one: the line's write-back
    persists the slot's current content. *)
let line_add_member s =
  match s.line with
  | Some l ->
      Mutex.lock s.region.mutex;
      l.l_members <- M s :: l.l_members;
      Mutex.unlock s.region.mutex
  | None -> ()

(** Is [l] in flight for the calling domain (flushed, not yet fenced)?  A
    flush of an in-flight line is absorbed by the pending write-back.  A
    line carries one mark, so when two domains flush it between their
    fences it stays in flight for the later one only: the earlier one's
    next flush of it is charged again (conservative, never unsound). *)
let line_in_flight t l = l.l_mark = (mine t).stamp

(** Mark [l] flushed by the calling domain: the first mark records one
    pending write-back covering the whole line (member content captured
    when the fence drains — a legal write-back instant, and the latest
    one); subsequent marks before the fence are the coalescing no-op. *)
let mark_line_flushed t l =
  let r = mine t in
  if l.l_mark <> r.stamp then begin
    l.l_mark <- r.stamp;
    push r.pending (Line l)
  end

(** [sfence]: all write-backs recorded by the calling domain are now
    guaranteed persistent.  With elision on, a fence that has nothing
    pending is a free no-op ([fence_elided]). *)
let fence t =
  let r = mine t in
  if t.elide && r.pending.len = 0 then begin
    Hooks.persist_point Hooks.Fence_elided;
    let s = Stats.get () in
    s.Stats.fence_elided <- s.Stats.fence_elided + 1;
    if !Hooks.access_on then announce_region t Hooks.A_fence_elided (-1);
    Hooks.yield ()
  end
  else begin
    Hooks.persist_point Hooks.Fence;
    let s = Stats.get () in
    s.Stats.fence <- s.Stats.fence + 1;
    Latency.fence ();
    drain r.pending apply;
    if t.slots_per_line > 1 then r.stamp <- fresh_stamp ();
    if !Hooks.access_on then announce_region t Hooks.A_fence (-1);
    Hooks.yield ()
  end

(* Write-backs across every domain's records of one kind (introspection). *)
let count t kind =
  Mutex.lock t.mutex;
  let n = List.fold_left (fun acc r -> acc + (kind r).len) 0 t.records in
  Mutex.unlock t.mutex;
  n

let pending_count t = count t (fun r -> r.pending)

(* -- buffered persistence: the epoch clock -------------------------------- *)

let cur_epoch t = t.cur_epoch
let durable_epoch t = t.durable_epoch
let epoch_len t = t.epoch_len

let set_epoch_len t n =
  if n < 1 then invalid_arg "Mirror_nvm.Region.set_epoch_len: n < 1";
  t.epoch_len <- n

let deferred_count t = count t (fun r -> r.deferred)

(* Deferred write-backs order by slot, the newest version first. *)
let by_slot a b =
  match (a, b) with
  | Wb (s, e), Wb (s', e') ->
      if s.uid <> s'.uid then Int.compare s.uid s'.uid
      else Int.compare e'.ver e.ver
  | _ -> 0

let same_slot a b =
  match (a, b) with Wb (s, _), Wb (s', _) -> s.uid = s'.uid | _ -> false

(* Shell sort of cells [0, len): in place, so sorting allocates nothing.
   Equal keys are the same snapshot (a slot's versions are unique between
   crashes, and a crash empties the deferred sets), so stability does not
   matter. *)
let sort s =
  let a = s.cells and gap = ref (s.len / 2) in
  while !gap > 0 do
    let g = !gap in
    for i = g to s.len - 1 do
      let x = a.(i) and j = ref i in
      while !j >= g && by_slot a.(!j - g) x > 0 do
        a.(!j) <- a.(!j - g);
        j := !j - g
      done;
      a.(!j) <- x
    done;
    gap := if g = 2 then 1 else g * 5 / 11
  done

(* The advancer's flush of a deferred snapshot: the charged-cost twin of
   {!Slot.flush}, but over the snapshot captured at record time, not
   whatever the slot holds by now.  Elision applies when the front already
   covers the snapshot (e.g. spontaneous eviction beat the advance to it).
   The pending write-back is the deferred one itself. *)
let flush_snapshot = function
  | Wb (s, e) as w ->
      if s.region.elide && covers e (Atomic.get s.persisted) then
        flush_elided s e.ver
      else begin
        flush_charged s;
        pend s w e.ver
      end;
      Hooks.yield ()
  | _ -> ()

(** Commit every epoch up to [target]: close the open epoch if [target]
    includes it, take all domains' deferred write-backs, flush the newest
    snapshot per slot, fence once, bump the durable epoch (a
    recovery-write: the single-word bump is ordered after the fence and
    never tears), then cut each flushed slot's front at the new durable
    epoch.  A write-back tagged with an epoch above [target] (recorded
    after a concurrent advance moved the clock) is flushed early; like an
    eviction, its entry stays above the cut until its own epoch commits.
    Nonblocking help protocol: whoever fails the [advancing] claim just
    returns — a buffered completion never waits for durability, and a
    straggler epoch is drained by the next advance. *)
let advance_to t ~target =
  let batch = t.batch in
  if Atomic.compare_and_set t.advancing false true then
    Fun.protect
      ~finally:(fun () ->
        drain batch ignore;
        Atomic.set t.advancing false)
      (fun () ->
        Mutex.lock t.mutex;
        if target >= t.cur_epoch then begin
          t.cur_epoch <- target + 1;
          t.cur_count <- 0
        end;
        List.iter (fun r -> drain r.deferred (push batch)) t.records;
        Mutex.unlock t.mutex;
        let n = batch.len and a = batch.cells in
        (* newest version per slot, flushed in uid order: batching turns n
           persists of one line into one flush *)
        if n > 0 then begin
          if !Hooks.access_on then announce_region t Hooks.A_epoch_close target;
          sort batch;
          for i = 0 to n - 1 do
            if i = 0 || not (same_slot a.(i - 1) a.(i)) then
              flush_snapshot a.(i)
          done;
          let s = Stats.get () in
          s.Stats.fence_batched <- s.Stats.fence_batched + 1;
          fence t
        end;
        if target > t.durable_epoch then begin
          Hooks.persist_point Hooks.Epoch_bump;
          t.durable_epoch <- target;
          let s = Stats.get () in
          s.Stats.epoch_advance <- s.Stats.epoch_advance + 1;
          if !Hooks.access_on then announce_region t Hooks.A_epoch_bump target;
          (* the superseded entries the flushes left below the new cut *)
          drain batch (function Wb (s, _) -> recut s target | _ -> ());
          Hooks.yield ()
        end)

(** Record one deferred persist of [s]'s snapshot [e] into the open
    epoch; triggers a synchronous advance when the epoch is full
    ([epoch_len] deferred persists). *)
let record_deferred s e =
  let t = s.region in
  check_up t;
  let r = mine t in
  Mutex.lock t.mutex;
  push r.deferred (Wb (s, e));
  t.cur_count <- t.cur_count + 1;
  let full = t.cur_count >= t.epoch_len in
  let target = t.cur_epoch in
  Mutex.unlock t.mutex;
  let st = Stats.get () in
  st.Stats.writes_deferred <- st.Stats.writes_deferred + 1;
  if full then advance_to t ~target

let help_advance t =
  check_up t;
  advance_to t ~target:t.cur_epoch

let epoch_quiesced t = t.cur_count = 0 && t.durable_epoch >= t.cur_epoch - 1

(** Make everything recorded so far durable (used after prefill and by
    harnesses that need a known-durable baseline).  A no-op on regions that
    never deferred anything, so strict cost models are unaffected. *)
let rec quiesce t =
  if not (epoch_quiesced t) then begin
    advance_to t ~target:t.cur_epoch;
    if not (epoch_quiesced t) then begin
      (* an in-flight advance holds the claim; let it finish *)
      Hooks.yield ();
      quiesce t
    end
  end

(* -- runtime eviction ---------------------------------------------------- *)

let evict_hit t =
  if t.runtime_evict_prob > 0. then begin
    Mutex.lock t.mutex;
    let hit = Random.State.float t.rng 1.0 < t.runtime_evict_prob in
    Mutex.unlock t.mutex;
    hit
  end
  else false

(* -- crash --------------------------------------------------------------- *)

(** Simulate a full-system crash.  Must be called while no other domain is
    accessing the region (the harness quiesces workers first; the
    deterministic scheduler is single-domain and can crash mid-operation). *)
let crash ?(policy = Adversarial) t =
  Mutex.lock t.mutex;
  t.crashes <- t.crashes + 1;
  t.down <- true;
  let survive () =
    match policy with
    | Adversarial -> false
    | Eviction p -> Random.State.float t.rng 1.0 < p
  in
  List.iter
    (fun r ->
      (* 1. un-fenced flushes (every domain's): apply the policy *)
      drain r.pending (fun w -> if survive () then apply w);
      (* 1a. in-flight line marks die with the cache *)
      r.stamp <- fresh_stamp ();
      (* 1b. buffered epochs: the deferred sets die with the cache *)
      drain r.deferred ignore)
    t.records;
  (* ... and the epoch clock restarts just past the durable slot.  Writes
     from epochs the durable slot does not cover are pruned by the slot
     resets below (each consults [durable_epoch]). *)
  t.cur_count <- 0;
  t.cur_epoch <- t.durable_epoch + 1;
  Atomic.set t.advancing false;
  (* 2. dirty unflushed lines: lost, unless eviction got them.  Slots on a
     shared cache line share one survival draw — a lost line loses all its
     slots together, a surviving eviction keeps them together. *)
  let persist_first = match policy with Adversarial -> false | Eviction _ -> true in
  List.iter
    (fun reset -> reset ~persist_first:(persist_first && survive ()))
    t.slot_resets;
  List.iter
    (fun l ->
      let s = persist_first && survive () in
      List.iter (fun reset -> reset ~persist_first:s) l.l_resets)
    t.lines;
  (* 3. volatile memory (DRAM replicas, caches) is gone — including the
     knowledge that a recovery may have been underway.  Volatile replicas
     see it through the crash count bumped above. *)
  t.in_recovery_session <- false;
  Mutex.unlock t.mutex

(* -- the recovery epoch --------------------------------------------------- *)

(** Open a recovery session on a crashed region.  Returns whether the
    {e previous} recovery was interrupted (its epoch transition never
    completed), i.e. whether any volatile state a careless driver might
    have kept from it must be discarded.  The first call after a crash
    flips the persistent epoch to odd (a recovery-write: immediately
    durable); further calls in the same session — one region can host
    several structures, each with its own tracer — are no-ops returning
    the session's verdict.  Calling on a region that is {e up} is a pure
    GC pass, not crash recovery: the epoch is not engaged and [false] is
    returned. *)
let begin_recovery t =
  if not t.down then false
  else if t.in_recovery_session then t.last_interrupted
  else begin
    t.in_recovery_session <- true;
    let interrupted = t.recovery_epoch land 1 = 1 in
    if not interrupted then t.recovery_epoch <- t.recovery_epoch + 1;
    t.last_interrupted <- interrupted;
    interrupted
  end

let recovery_epoch t = t.recovery_epoch
let recovery_interrupted t = t.last_interrupted

(** Recovery is complete; normal operation may resume.  Called by the
    recovery procedure ({!Mirror_core.Recovery.recover}) after it has
    restored all volatile replicas reachable from the persistent roots.
    Finalizes the recovery epoch back to even — the durable record that
    this recovery ran to completion. *)
let mark_recovered t =
  if t.recovery_epoch land 1 = 1 then
    t.recovery_epoch <- t.recovery_epoch + 1;
  t.in_recovery_session <- false;
  t.down <- false
