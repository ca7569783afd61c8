(** A word of simulated persistent memory.

    A slot models one (double-)word of NVMM together with its cache line:

    - [current] is the coherent view every processor sees (cache + memory);
    - [persisted] is what is guaranteed to survive a crash ([None] until the
      first write-back reaches the media).

    Internal version numbers keep write-backs monotone: on real hardware two
    [clwb]s of the same line can never travel back in time, so a concurrent
    flush of an older snapshot must not overwrite a newer persisted value.

    Slots charge NVMM access costs ({!Latency}) and events ({!Stats}), and
    call {!Hooks.yield} at each atomic step so the deterministic scheduler
    can interleave them.  The media history's rules and the write-back
    machinery (pending and deferred write-backs, the epoch advance) live
    in {!Region}, which declares the slot record. *)

type 'a entry = 'a Region.entry = { v : 'a; ver : int; ep : int }
(** [ep] is the epoch that produced the write: [0] for strict slots
    (immediately committable), the region's open epoch for buffered slots.
    Crash recovery keeps only entries tagged [<= Region.durable_epoch]. *)

type 'a t = 'a Region.slot = {
  region : Region.t;
  uid : int;  (** global location identity, for access-event attribution *)
  pair : int;  (** owning Mirror pair uid, [-1] when not a replica *)
  line : Region.line option;
      (** the cache line this slot was carved from ([None] on slot-granular
          regions and on buffered slots): line-mates share write-backs —
          a flush of a line already in flight coalesces — and crash fate *)
  buffered : bool;
      (** buffered discipline: writes tag the open epoch and persists are
          recorded into the epoch's deferred set instead of flushing *)
  home : int;
      (** home domain of the slot's memory: its line's carver, or the
          allocating logical thread when lineless.  Accesses from other
          threads pay the NUMA remote-line surcharge when the
          {!Latency.numa_remote_ns} knob is on. *)
  current : 'a entry Atomic.t;
      (** the coherent view; its [ver] is the value-sequence number every
          access event announces.  Mirror's volatile replica holds the very
          same entry once a write is mirrored: one block per write. *)
  persisted : 'a entry list Atomic.t;
      (** media history, newest (max [ver]) first, kept as the Pareto front
          over (version high, epoch low): an entry is dropped once another
          entry has both [ver >=] and [ep <=] it, so epochs fall along the
          list too.  The list is cut at the durable epoch: of the entries
          tagged [<= Region.durable_epoch] (a suffix) only the first — the
          one a crash restores — is kept, by every write-back and again by
          the advance that commits the entry's epoch.  A committed front
          is therefore one entry, on strict slots (all [ep = 0]) and
          buffered slots alike; only writes in uncommitted epochs add one
          entry per such epoch. *)
  mutable lost : bool;
      (** set when a crash hits a slot that was never persisted: its
          post-crash content is garbage, and any access is a detected bug *)
}

let next_uid = Atomic.make 0

(* The epoch tag for a fresh write on this slot. *)
let write_epoch t = if t.buffered then Region.cur_epoch t.region else 0

let announce = Region.announce_slot

let persisted_entry t =
  match Atomic.get t.persisted with [] -> None | p :: _ -> Some p

(* Crash reset: optionally write back the current content first (an
   eviction that beat the crash), then roll the cache view back to what
   the durable cut restores.  Entries from epochs the durable slot does
   not cover are discarded even if they physically reached the media —
   they may be part of an inconsistent (torn-epoch) state. *)
let reset t ~persist_first =
  if persist_first then Region.persist t (Atomic.get t.current);
  let de = Region.durable_epoch t.region in
  let hist = Atomic.get t.persisted in
  (* epochs fall along the front: anything above the cut is a prefix *)
  let rolled_back = match hist with p :: _ -> p.ep > de | [] -> false in
  match Region.restorable de hist with
  | None ->
      Atomic.set t.persisted [];
      t.lost <- true;
      if rolled_back && !Hooks.access_on then
        announce t Hooks.A_rollback ~seq:(-1)
  | Some p ->
      Atomic.set t.persisted [ p ];
      Atomic.set t.current p;
      if rolled_back && !Hooks.access_on then
        announce t Hooks.A_rollback ~seq:p.ver

let make ?(persist = false) ?(charge_copy = false) ?(pair = -1)
    ?(buffered = false) ?line region v =
  (* buffered slots persist through the epoch clock, never through line
     write-backs: they take no line *)
  let line = if buffered then None else line in
  let e = { v; ver = 0; ep = 0 } in
  let t =
    {
      region;
      uid = Atomic.fetch_and_add next_uid 1;
      pair;
      line;
      buffered;
      home =
        (match line with
        | Some l -> Region.line_home l
        | None -> Hooks.tid ());
      current = Atomic.make e;
      persisted = Atomic.make (if persist then [ e ] else []);
      lost = false;
    }
  in
  (* line membership: the line's write-back persists this slot's current
     content *)
  Region.line_add_member t;
  (* crash processing (a line member's reset shares the line's survival
     draw); untracked regions never reset a slot, so they get no closure *)
  if Region.tracks_slots region then
    Region.register_slot region ?line (fun ~persist_first ->
        reset t ~persist_first);
  let coalesced_birth =
    charge_copy && persist
    &&
    match line with
    | Some l -> Region.line_in_flight region l
    | None -> false
  in
  if charge_copy && persist then begin
    (* allocation-time copy to NVMM + clwb: the caller initialised this
       line durably, so bill the write and write-back here in the
       substrate (the ordering fence folds into the caller's next fence).
       No persist/access event is emitted beyond [A_make]: the initial
       value is durable from birth (ver 0 persisted above), so there is no
       crash outcome to enumerate and nothing for the sanitizer to see
       beyond the make itself. *)
    let s = Stats.get () in
    s.Stats.nvm_write <- s.Stats.nvm_write + 1;
    Latency.nvm_write ();
    if coalesced_birth then
      (* the birth [clwb] is absorbed by the line-mate's pending
         write-back: bill a coalesced flush instead of a charged one *)
      s.Stats.flush_coalesced <- s.Stats.flush_coalesced + 1
    else begin
      s.Stats.flush <- s.Stats.flush + 1;
      Latency.flush ();
      match line with
      | Some l -> Region.mark_line_flushed region l
      | None -> ()
    end
  end;
  if !Hooks.access_on then announce t (Hooks.A_make persist) ~seq:e.ver;
  if coalesced_birth && !Hooks.access_on then
    announce t Hooks.A_flush_coalesced ~seq:e.ver;
  t

let check t =
  Region.check_up t.region;
  if t.lost then
    invalid_arg
      "Mirror_nvm.Slot: reading a slot whose content was lost in a crash \
       (never persisted): the recovery procedure reached unrecoverable data"

(** Load from NVMM (paying the 3x-DRAM read cost); the whole entry, so
    Mirror reads the value and its sequence number in one access. *)
let load_entry t =
  Hooks.yield ();
  check t;
  let s = Stats.get () in
  s.Stats.nvm_read <- s.Stats.nvm_read + 1;
  Latency.nvm_read ();
  Region.charge_remote t;
  let e = Atomic.get t.current in
  if !Hooks.access_on then announce t Hooks.A_load ~seq:e.ver;
  e

let load t = (load_entry t).v

(* The tail of every successful write: announce it, then draw a runtime
   eviction, which writes the line back. *)
let wrote t op e =
  if !Hooks.access_on then announce t op ~seq:e.ver;
  if Region.evict_hit t.region then
    match t.line with
    | Some l -> Region.line_persist_members l
    | None -> Region.persist t e

(* The write loops are toplevel functions, so a write allocates its entry
   and nothing else.  Versions stay monotone under concurrency. *)
let rec store_loop t v =
  let cur = Atomic.get t.current in
  let e = { v; ver = cur.ver + 1; ep = write_epoch t } in
  if Atomic.compare_and_set t.current cur e then wrote t Hooks.A_store e
  else store_loop t v

(** Unconditional store. *)
let store t v =
  Hooks.yield ();
  check t;
  Hooks.persist_point Hooks.Write;
  let s = Stats.get () in
  s.Stats.nvm_write <- s.Stats.nvm_write + 1;
  Latency.nvm_write ();
  Region.charge_remote t;
  store_loop t v

let begin_cas t =
  Hooks.yield ();
  check t;
  Hooks.persist_point Hooks.Dwcas;
  let s = Stats.get () in
  s.Stats.nvm_cas <- s.Stats.nvm_cas + 1;
  Latency.nvm_write ();
  Region.charge_remote t

let cas_failed t cur =
  if !Hooks.access_on then announce t (Hooks.A_cas false) ~seq:cur.ver

let rec cas_pred_loop t expect desired =
  let cur = Atomic.get t.current in
  if expect cur.v then begin
    let e = { v = desired; ver = cur.ver + 1; ep = write_epoch t } in
    if Atomic.compare_and_set t.current cur e then begin
      wrote t (Hooks.A_cas true) e;
      (true, cur.v)
    end
    else cas_pred_loop t expect desired
  end
  else begin
    cas_failed t cur;
    (false, cur.v)
  end

(** Compare-and-swap where the caller decides equality via [expect].
    Returns [(success, witnessed_value)] — like [cmpxchg], the witness is
    the value that was in memory when the instruction executed. *)
let cas_pred t ~(expect : 'a -> bool) ~(desired : 'a) : bool * 'a =
  begin_cas t;
  cas_pred_loop t expect desired

let rec dwcas_loop t (expected : 'a entry) desired =
  let cur = Atomic.get t.current in
  if cur.v == expected.v && cur.ver = expected.ver then begin
    let e = { v = desired; ver = cur.ver + 1; ep = write_epoch t } in
    if Atomic.compare_and_set t.current cur e then begin
      wrote t (Hooks.A_cas true) e;
      (true, e)
    end
    else dwcas_loop t expected desired
  end
  else begin
    cas_failed t cur;
    (false, cur)
  end

(** Mirror's double-word CAS: compare value (physical equality, as a
    hardware word compare) and version, install [desired] under the next
    version.  Returns [(true, installed)] or [(false, witnessed)]. *)
let dwcas t ~expected ~desired =
  begin_cas t;
  dwcas_loop t expected desired

(** Plain pointer-equality CAS. *)
let cas t ~expected ~desired =
  fst (cas_pred t ~expect:(fun v -> v == expected) ~desired)

(** Whether the cache line holds data newer than what is guaranteed
    persistent — the check behind Zuriel et al.'s elimination of repeated
    redundant persisting operations.  Free of charge (it models a volatile
    per-node flag, not an NVMM access). *)
let is_dirty t =
  match Atomic.get t.persisted with
  | [] -> true
  | p :: _ -> p.ver < (Atomic.get t.current).ver

(** [clwb]: record a write-back of the line's current content.  The value is
    guaranteed persistent only once a subsequent {!Region.fence} completes,
    but may reach the media spontaneously before that.

    When the region's elision mode is on and the line is clean, the flush is
    a free no-op counted as [flush_elided]: versions are monotone, so a clean
    read here means the current value (or a newer one) is already durable and
    the write-back could only be redundant (Zuriel et al.'s elimination of
    repeated redundant persisting operations — the clean state is only ever
    installed by a *completed* flush + fence, which is exactly when a real
    implementation would clear the per-line dirty bit).  A stale dirty read
    is merely conservative — we never skip a required persist. *)
let flush t =
  Hooks.yield ();
  check t;
  if Region.elision t.region && not (is_dirty t) then begin
    Region.flush_elided t (Atomic.get t.current).ver;
    (* keep the line's in-flight state identical to the un-elided run (the
       charged flush below would have marked it): the mark only ever
       persists *more* at the fence, which a real cache may do anyway *)
    match t.line with
    | Some l -> Region.mark_line_flushed t.region l
    | None -> ()
  end
  else
    match t.line with
    | Some l when Region.line_in_flight t.region l ->
        (* the line is already in flight for this domain: this [clwb] is
           absorbed by the pending write-back (which captures member
           content when the fence drains — at or after this instant) *)
        Hooks.persist_point Hooks.Flush_coalesced;
        let s = Stats.get () in
        s.Stats.flush_coalesced <- s.Stats.flush_coalesced + 1;
        if !Hooks.access_on then
          announce t Hooks.A_flush_coalesced
            ~seq:(Atomic.get t.current).ver
    | Some l ->
        Region.flush_charged t;
        Region.mark_line_flushed t.region l;
        if !Hooks.access_on then
          announce t Hooks.A_flush ~seq:(Atomic.get t.current).ver
    | None ->
        Region.flush_charged t;
        Region.write_back t (Atomic.get t.current)

(** Buffered persist: record the current content into the open epoch's
    deferred set instead of flushing — free on the hot path (the epoch
    advance pays the batched flush + fence later).  With elision on and a
    clean line, even the record is skipped (counted as [flush_elided],
    exactly when strict {!flush} would elide). *)
let persist_deferred t =
  Hooks.yield ();
  check t;
  if Region.elision t.region && not (is_dirty t) then
    Region.flush_elided t (Atomic.get t.current).ver
  else begin
    let snapshot = Atomic.get t.current in
    if !Hooks.access_on then
      announce t Hooks.A_persist_deferred ~seq:snapshot.ver;
    Region.record_deferred t snapshot
  end

(** Recovery write: store + immediate durability, usable while the region
    is down (the recovery procedure is the only code running, and it
    persists everything it writes before normal operation resumes).  Also
    heals a lost slot by overwriting its garbage. *)
let recover_store t v =
  let cur = Atomic.get t.current in
  let e = { v; ver = cur.ver + 1; ep = 0 } in
  Atomic.set t.current e;
  Atomic.set t.persisted [ e ];
  t.lost <- false;
  if !Hooks.access_on then
    announce t Hooks.A_recovery_write ~seq:e.ver

(** Test/recovery introspection: what would survive a crash right now
    (assuming pending write-backs are lost). *)
let persisted_value t = Option.map (fun e -> e.v) (persisted_entry t)

(** What the durable-epoch cut would restore right now: the newest
    persisted entry from a committed epoch (test/recovery introspection). *)
let durable_value t =
  let de = Region.durable_epoch t.region in
  Option.map (fun p -> p.v) (Region.restorable de (Atomic.get t.persisted))

(** The coherent (cache) view, without charging costs — test-only. *)
let peek_entry t = Atomic.get t.current
let peek t = (peek_entry t).v
let is_lost t = t.lost
let buffered t = t.buffered
let region t = t.region
let uid t = t.uid
let pair t = t.pair
let line t = t.line

let offer = Region.offer
let history_length t = List.length (Atomic.get t.persisted)
