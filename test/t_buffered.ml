(** Buffered durable linearizability (the third discipline): epoch-batched
    persistence must degenerate to the strict Mirror cost model at epoch
    length 1, survive crashes landing in the window between an epoch
    advance's fence and its durable-epoch bump, keep help-advance
    nonblocking under scheduled races, and bound staleness — a crash loses
    at most the two uncommitted epochs of completed updates — under crash
    torture for all four structure sets. *)

open Mirror_core
open Mirror_nvm
open Mirror_dstruct
module Sched = Mirror_schedsim.Sched
module D = Mirror_harness.Durable
module W = Mirror_workload.Workload
module Rng = Mirror_workload.Rng

let check = Support.check
let reset () = Stats.reset_all ()
let st () = Stats.total ()

(* -- 1. exact cost model at epoch length 1 ------------------------------------ *)

(* A successful buffered CE at epoch length 1 records one deferred persist
   whose synchronous advance flushes it and fences once: exactly the strict
   charge (one flush + one fence), now also visible in the batching
   counters. *)
let test_unit_cost_len1 () =
  let r = Region.create ~epoch_len:1 () in
  let v = Patomic.make ~discipline:Patomic.Buffered r 5 in
  reset ();
  check (Patomic.cas v ~expected:5 ~desired:10) "cas succeeds";
  let s = st () in
  Alcotest.(check int) "one flush charged" 1 s.Stats.flush;
  Alcotest.(check int) "one fence charged" 1 s.Stats.fence;
  Alcotest.(check int) "one deferred record" 1 s.Stats.writes_deferred;
  Alcotest.(check int) "one batched fence" 1 s.Stats.fence_batched;
  check (s.Stats.epoch_advance >= 1) "the epoch advanced synchronously";
  Alcotest.(check int) "durable epoch caught up" 1 (Region.durable_epoch r)

(* The same sequential op stream against the same structure must charge
   identical flush/fence totals under strict Mirror and under buffered at
   epoch length 1 — the degenerate epoch clock is cost-transparent. *)
let seq_cost_len1 ds () =
  let run prim =
    let region = Region.create ~track_slots:false ~seed:7 ~epoch_len:1 () in
    let (module S) = Sets.make ds (Support.prim region prim) in
    let t = S.create ~capacity:16 () in
    List.iter (fun k -> ignore (S.insert t k k)) (W.prefill_keys ~range:16);
    reset ();
    let rng = Rng.create 23 in
    for i = 1 to 400 do
      match W.gen rng (W.of_updates 70) ~range:16 with
      | W.Lookup k -> ignore (S.contains t k)
      | Insert (k, _) -> ignore (S.insert t k i)
      | Remove k -> ignore (S.remove t k)
    done;
    Region.quiesce region;
    (st (), S.to_list t)
  in
  let s_strict, c_strict = run "mirror" in
  let s_buf, c_buf = run "buffered" in
  Alcotest.(check (list (pair int int)))
    (Sets.ds_name ds ^ ": identical final contents")
    c_strict c_buf;
  Alcotest.(check int)
    (Sets.ds_name ds ^ ": flush parity at epoch length 1")
    s_strict.Stats.flush s_buf.Stats.flush;
  Alcotest.(check int)
    (Sets.ds_name ds ^ ": fence parity at epoch length 1")
    s_strict.Stats.fence s_buf.Stats.fence;
  Alcotest.(check int)
    (Sets.ds_name ds ^ ": flush elision parity")
    s_strict.Stats.flush_elided s_buf.Stats.flush_elided;
  check (s_buf.Stats.writes_deferred > 0)
    (Sets.ds_name ds ^ ": the buffered run actually deferred");
  Alcotest.(check int)
    (Sets.ds_name ds ^ ": strict run never touches the epoch clock")
    0 s_strict.Stats.writes_deferred

(* -- 2. crash in the fence-to-bump window ------------------------------------- *)

exception Cut

(* Cut the execution exactly at [Epoch_bump] number [n] (1-based); the
   epoch's batch is flushed and fenced but the durable-epoch slot has not
   moved. *)
let crash_at_bump n body =
  let seen = ref 0 in
  match
    Hooks.with_persist
      (fun ev ->
        if ev = Hooks.Epoch_bump then begin
          incr seen;
          if !seen = n then raise Cut
        end)
      body
  with
  | () -> Alcotest.fail "no Epoch_bump reached"
  | exception Cut -> ()

(* Crash between the advance's fence and the durable-epoch bump: the
   epoch's writes are physically durable but not yet committed, so recovery
   must discard them — the state rolls back to the previous durable cut,
   never to a torn mixture. *)
let test_crash_fence_bump_window () =
  let r = Region.create ~epoch_len:4 () in
  let v = Patomic.make ~discipline:Patomic.Buffered r 0 in
  crash_at_bump 1 (fun () ->
      for i = 1 to 4 do
        Patomic.store v i
      done);
  Alcotest.(check int) "durable epoch never bumped" 0 (Region.durable_epoch r);
  Region.crash r;
  Patomic.recover v;
  Region.mark_recovered r;
  Alcotest.(check int)
    "fenced-but-unbumped epoch discarded: initial value survives" 0
    (Patomic.load v);
  (* the same writes, allowed to commit, are durable past any crash *)
  for i = 1 to 4 do
    Patomic.store v i
  done;
  Region.quiesce r;
  Region.crash r;
  Patomic.recover v;
  Region.mark_recovered r;
  Alcotest.(check int) "committed epoch survives" 4 (Patomic.load v)

(* A committed epoch is a hard floor: crash with a younger epoch open and
   recovery lands exactly on the newest write of the durable epoch. *)
let test_rollback_to_committed_epoch () =
  let r = Region.create ~epoch_len:4 () in
  let v = Patomic.make ~discipline:Patomic.Buffered r 0 in
  for i = 1 to 4 do
    Patomic.store v i
  done;
  Alcotest.(check int) "first epoch committed" 1 (Region.durable_epoch r);
  Patomic.store v 5;
  (* epoch 2, still open *)
  Region.crash r;
  Patomic.recover v;
  Region.mark_recovered r;
  Alcotest.(check int) "rolled back to the committed epoch's newest write" 4
    (Patomic.load v)

(* -- 3. help-advance races ------------------------------------------------------ *)

(* An advance already in flight makes a concurrent help-advance return
   immediately — buffered completion never waits.  With nothing deferred an
   advance charges no flush and no fence at all. *)
let test_help_advance_empty_is_free () =
  let r = Region.create ~epoch_len:8 () in
  reset ();
  Region.help_advance r;
  Region.help_advance r;
  let s = st () in
  Alcotest.(check int) "no flush charged" 0 s.Stats.flush;
  Alcotest.(check int) "no fence charged" 0 s.Stats.fence;
  Alcotest.(check int) "no batch fence" 0 s.Stats.fence_batched

(* Writers racing dedicated helper tasks that hammer [help_advance] under
   the deterministic scheduler: the claim protocol must never deadlock
   (every schedule completes), and after quiescence every value is exactly
   what a crash preserves. *)
let test_help_advance_races () =
  for seed = 1 to 20 do
    let r = Region.create ~seed ~epoch_len:8 () in
    let vars = Array.init 3 (fun _ -> Patomic.make ~discipline:Patomic.Buffered r 0) in
    let writer i () =
      let rng = Rng.split ~seed i in
      for n = 1 to 15 do
        let v = vars.(Rng.int rng 3) in
        match Rng.int rng 3 with
        | 0 -> Patomic.store v ((i * 100) + n)
        | 1 -> ignore (Patomic.fetch_add v 1)
        | _ -> ignore (Patomic.cas v ~expected:(Patomic.load v) ~desired:n)
      done
    in
    let helper () =
      for _ = 1 to 10 do
        Hooks.yield ();
        Region.help_advance r
      done
    in
    let outcome = Sched.run ~seed [ writer 0; writer 1; helper; helper ] in
    check outcome.Sched.completed
      (Printf.sprintf "seed=%d: racing advances never block completion" seed);
    Region.quiesce r;
    check
      (Region.durable_epoch r >= Region.cur_epoch r - 1)
      (Printf.sprintf "seed=%d: durable epoch caught up" seed);
    let before = Array.map Patomic.load vars in
    Region.crash r;
    Array.iter Patomic.recover vars;
    Region.mark_recovered r;
    Array.iteri
      (fun i v ->
        Alcotest.(check int)
          (Printf.sprintf "seed=%d var=%d: quiesced value durable" seed i)
          before.(i) (Patomic.load v))
      vars
  done

(* -- 4. bounded staleness under crash torture ---------------------------------- *)

let epoch_len = 8
let cuts = [ 40; 150; 400; 1200 ]

(* Buffered durable linearizability at every cut: nothing from a committed
   epoch may be lost, no operation may be half-applied. *)
let torture_buffered ds () =
  let mid = ref 0 in
  List.iter
    (fun (seed, crash_step) ->
      let region = Region.create ~seed ~epoch_len () in
      let pack = Sets.make ds (Support.prim region "buffered") in
      let r =
        D.torture_schedsim pack ~region
          ~recover:(fun () -> ())
          ~buffered:true ~seed ~threads:3 ~ops_per_task:10 ~range:8
          ~mix:(W.of_updates 70) ~crash_step ()
      in
      if r.D.crashed_mid_run then incr mid;
      match r.D.violations with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "%s buffered seed=%d cut=%d: %s" (Sets.ds_name ds)
            seed crash_step
            (Format.asprintf "%a" D.pp_violation v))
    (List.concat_map (fun seed -> List.map (fun c -> (seed, c)) cuts)
       [ 1; 2; 3; 4 ]);
  check (!mid > 0) "some crashes cut operations mid-flight"

(* The staleness bound, quantified: a crash can lose the open epoch plus at
   most one closed-but-unbumped epoch — at most [2 * epoch_len] deferred
   records, hence at most that many completed updates.  The strict
   validator over the buffered run flags exactly the dropped tail; its
   violation count is the loss and must respect the bound (and be nonzero
   somewhere, or the whole tier is vacuous). *)
let staleness_bound ds () =
  let dropped_somewhere = ref false in
  List.iter
    (fun (seed, crash_step) ->
      let region = Region.create ~seed ~epoch_len () in
      let pack = Sets.make ds (Support.prim region "buffered") in
      let cap =
        D.workload_capture
          ~epoch_of:(fun () -> Region.cur_epoch region)
          pack ~seed ~threads:3 ~ops_per_task:12 ~range:8
          ~mix:(W.of_updates 70)
      in
      Region.quiesce region;
      ignore (Sched.run ~seed ~max_steps:crash_step cap.D.cap_tasks);
      Region.crash region;
      let (_ : bool) = Region.begin_recovery region in
      Hooks.with_recovery (fun () -> cap.D.cap_recover ());
      Region.mark_recovered region;
      let observed = cap.D.cap_observed () in
      let de = Region.durable_epoch region in
      (match
         D.validate ~durable_epoch:de ~prefilled:W.is_prefilled ~range:8
           ~observed cap.D.cap_workers
       with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "%s seed=%d cut=%d: buffered validation failed: %s"
            (Sets.ds_name ds) seed crash_step
            (Format.asprintf "%a" D.pp_violation v));
      let strict =
        D.validate ~prefilled:W.is_prefilled ~range:8 ~observed
          cap.D.cap_workers
      in
      if strict <> [] then dropped_somewhere := true;
      check
        (List.length strict <= 2 * epoch_len)
        (Printf.sprintf "%s seed=%d cut=%d: %d keys lost, bound is %d"
           (Sets.ds_name ds) seed crash_step (List.length strict)
           (2 * epoch_len)))
    (List.concat_map (fun seed -> List.map (fun c -> (seed, c)) cuts)
       [ 1; 2; 3 ]);
  check !dropped_somewhere
    (Sets.ds_name ds ^ ": some cut actually dropped a deferred tail")

(* -- 5. the media history -------------------------------------------------------- *)

(* A buffered variable written and committed once per epoch keeps exactly
   one entry in its media history after each advance, like a strict one:
   the advance cuts the front at the durable epoch it has just bumped. *)
let test_history_bounded () =
  let r = Region.create ~epoch_len:8 () in
  let v = Patomic.make ~discipline:Patomic.Buffered r 0 in
  let longest = ref 0 in
  for i = 1 to 1000 do
    if not (Patomic.cas v ~expected:(i - 1) ~desired:i) then
      Alcotest.failf "cas %d -> %d failed" (i - 1) i;
    Region.help_advance r;
    longest := max !longest (Patomic.history_length v)
  done;
  Alcotest.(check int) "one epoch committed per write" 1000
    (Region.durable_epoch r);
  Alcotest.(check int) "media history is one entry after each advance" 1
    !longest

(* A superseded buffered entry must not keep an unlinked node alive: once
   the removal's epoch is durable, the entry that still pointed at the
   node is cut from its predecessor's media history, and the node (with
   its value) is garbage. *)
let test_unlinked_node_freed () =
  let region = Region.create ~track_slots:false ~epoch_len:16 () in
  let (module P) = Support.prim region "buffered" in
  let module H = Hash_table.Make (P) in
  let t = H.create ~buckets:4 () in
  let weak = Weak.create 1 in
  let[@inline never] insert () =
    let v = ref 42 in
    Weak.set weak 0 (Some v);
    check (H.insert t 1 v) "insert the boxed value"
  in
  insert ();
  Region.quiesce region;
  check (H.remove t 1) "remove it";
  Region.quiesce region;
  Gc.full_major ();
  let alive = Weak.check weak 0 in
  (* the table itself must outlive the collection *)
  check (H.size t = 0) "the table is empty";
  check (not alive) "the removed value is collected once the removal is durable"

(* The advance's cut of a front races runtime-eviction write-backs of the
   same buffered slot (every store is written back at once).  The sink
   yields right after each durable-epoch bump, so the writer's store and
   eviction can land between the bump and the cut, as well as before the
   advance's flush or after it.  At every access event the value a crash
   would restore must never regress (nor disappear), and once the region
   is quiesced the front is the one restorable entry. *)
let test_recut_races_eviction () =
  let in_window = ref 0 in
  for seed = 1 to 40 do
    let r = Region.create ~seed ~runtime_evict_prob:1.0 ~epoch_len:2 () in
    let s = Slot.make ~persist:true ~buffered:true r 0 in
    let best = ref 0 and window = ref false in
    let watch () =
      match Slot.durable_value s with
      | None -> Alcotest.failf "seed=%d: the restorable entry was dropped" seed
      | Some v ->
          if v < !best then
            Alcotest.failf "seed=%d: durable value regressed %d -> %d" seed
              !best v;
          best := v
    in
    let sink (a : Hooks.access) =
      watch ();
      match a.Hooks.a_op with
      | Hooks.A_epoch_bump ->
          window := true;
          Hooks.yield ();
          watch ()
      | Hooks.A_store when !window -> incr in_window
      | _ -> ()
    in
    let writer () =
      for i = 1 to 12 do
        Slot.store s i;
        Slot.persist_deferred s
      done
    in
    let advancer () =
      for _ = 1 to 8 do
        Region.help_advance r;
        window := false;
        Hooks.yield ()
      done
    in
    let outcome =
      Hooks.with_access sink (fun () -> Sched.run ~seed [ writer; advancer ])
    in
    check outcome.Sched.completed (Printf.sprintf "seed=%d: completes" seed);
    Region.quiesce r;
    watch ();
    Alcotest.(check (option int))
      (Printf.sprintf "seed=%d: the last write is durable" seed)
      (Some 12) (Slot.durable_value s);
    Alcotest.(check int)
      (Printf.sprintf "seed=%d: one entry once quiesced" seed)
      1 (Slot.history_length s)
  done;
  check (!in_window > 0) "some store landed between a bump and its cut"

(* Updates over a fixed key set, arranged so that every round ends with the
   same contents: remove and re-insert every key.  What the structure
   retains then depends only on what the slots' histories keep alive. *)
let test_retained_flat () =
  let range = 64 in
  let region = Region.create ~track_slots:false ~epoch_len:16 () in
  let (module S) = Sets.make Sets.Hash_ds (Support.prim region "buffered") in
  let t = S.create ~capacity:range () in
  List.iter (fun k -> ignore (S.insert t k k)) (List.init range Fun.id);
  Region.quiesce region;
  let round = ref 0 in
  let words_at epochs =
    while Region.durable_epoch region < epochs do
      incr round;
      for k = 0 to range - 1 do
        if not (S.remove t k && S.insert t k (k + !round)) then
          Alcotest.failf "round %d: key %d not replaced" !round k
      done
    done;
    Region.quiesce region;
    Obj.reachable_words (Obj.repr t)
  in
  let w100 = words_at 100 in
  let w1000 = words_at 1000 in
  check
    (float_of_int (abs (w1000 - w100)) <= 0.05 *. float_of_int w100)
    (Printf.sprintf
       "retained words after 100 and 1000 epochs within 5%% (%d vs %d)" w100
       w1000)

(* The pre-cut write-back rule, composed the long way: drop a dominated
   offer, else filter out what it dominates, insert it in version order,
   then keep the entries above the durable epoch and the first one at or
   below it. *)
let reference_offer ~durable front (e : int Slot.entry) =
  let open Slot in
  if List.exists (fun p -> p.ver >= e.ver && p.ep <= e.ep) front then None
  else
    let kept = List.filter (fun p -> not (p.ver <= e.ver && p.ep >= e.ep)) front in
    let rec insert = function
      | p :: rest when p.ver > e.ver -> p :: insert rest
      | rest -> e :: rest
    in
    let l = insert kept in
    let above = List.filter (fun p -> p.ep > durable) l in
    match List.filter (fun p -> p.ep <= durable) l with
    | [] -> Some above
    | p :: _ -> Some (above @ [ p ])

(* A random Pareto front: distinct versions and distinct epochs, both
   falling along the list. *)
let gen_offer_case =
  QCheck.Gen.(
    let distinct_desc l = List.sort_uniq (fun a b -> compare b a) l in
    let* vers = list_size (int_bound 6) (int_bound 24) in
    let* eps = list_size (int_bound 6) (int_bound 10) in
    let vers = distinct_desc vers and eps = distinct_desc eps in
    let n = min (List.length vers) (List.length eps) in
    let take l = List.filteri (fun i _ -> i < n) l in
    let front =
      List.map2 (fun ver ep -> { Slot.v = ver; ver; ep }) (take vers) (take eps)
    in
    let* ver = int_bound 26 in
    let* ep = int_bound 12 in
    let* durable = int_bound 12 in
    return (front, { Slot.v = -ver; ver; ep }, durable))

let print_offer_case (front, (e : int Slot.entry), durable) =
  let pe (p : int Slot.entry) = Printf.sprintf "(%d,%d)" p.ver p.ep in
  Printf.sprintf "front=[%s] offer=%s durable=%d"
    (String.concat ";" (List.map pe front))
    (pe e) durable

let prop_offer_matches_reference =
  QCheck.Test.make ~name:"media history: one-pass offer = filter, insert, cut"
    ~count:3000
    (QCheck.make ~print:print_offer_case gen_offer_case)
    (fun (front, e, durable) ->
      Slot.offer ~durable front e = reference_offer ~durable front e)

(* The one case the cut can show through: a buffered write made in epoch 1
   whose persist is delayed until the epoch has committed without it, so
   its snapshot is flushed (stale) in a later epoch.  Three logical threads
   under a fixed round-robin schedule:
   - A CASes 0 -> 1 in epoch 1 and is held right after its [repp] write;
   - B commits epoch 1 (empty), then epoch 2, releases A, commits epoch 3;
   - H, once epoch 1 is committed, runs a failing CAS that helps A's write
     along: its persist records the stale snapshot into epoch 2.
   A's own persist lands in epoch 3: a second record of the same stale
   snapshot (elided when elision is on, since the line is clean by then). *)
type stale_run = {
  sr_steps : int;
  sr_completed : bool;
  sr_stats : Stats.t;
  sr_recovered : int;
  sr_model : int;
  sr_durable : int;  (** durable epoch after the crash *)
  sr_stale : bool;  (** a flush of the write came after its epoch committed *)
}

let stale_record_run ~elide ?max_steps () =
  let r = Region.create ~elide ~epoch_len:64 () in
  let v = Patomic.make ~discipline:Patomic.Buffered r 0 in
  let release_a = ref false and a_done = ref false and h_done = ref false in
  let write_epoch = ref (-1) and flushed = ref false and on_media = ref false in
  let stale = ref false in
  let rec wait_until c = if not (c ()) then (Hooks.yield (); wait_until c) in
  let sink (a : Hooks.access) =
    match a.Hooks.a_op with
    | Hooks.A_cas true when a.a_tid = 0 ->
        write_epoch := Region.cur_epoch r;
        wait_until (fun () -> !release_a)
    | Hooks.A_flush ->
        flushed := true;
        if !write_epoch >= 0 && Region.durable_epoch r >= !write_epoch then
          stale := true
    | Hooks.A_fence -> if !flushed then on_media := true
    | _ -> ()
  in
  let writer () =
    check (Patomic.cas v ~expected:0 ~desired:1) "A's cas succeeds";
    a_done := true
  in
  let advancer () =
    wait_until (fun () -> Patomic.seq_p v = 1);
    Region.help_advance r;
    wait_until (fun () -> !h_done);
    Region.help_advance r;
    release_a := true;
    wait_until (fun () -> !a_done);
    Region.help_advance r
  in
  let helper () =
    wait_until (fun () -> Region.durable_epoch r >= 1);
    check (not (Patomic.cas v ~expected:7 ~desired:8)) "H's cas fails";
    h_done := true
  in
  reset ();
  let outcome =
    Hooks.with_access sink (fun () ->
        Sched.run_with_picker ~pick:(fun n -> n - 1) ?max_steps
          [ writer; advancer; helper ])
  in
  let stats = st () in
  Region.crash r;
  Patomic.recover v;
  Region.mark_recovered r;
  let durable = Region.durable_epoch r in
  {
    sr_steps = outcome.Sched.steps;
    sr_completed = outcome.Sched.completed;
    sr_stats = stats;
    sr_recovered = Patomic.load v;
    sr_model =
      (if !on_media && !write_epoch >= 0 && !write_epoch <= durable then 1
       else 0);
    sr_durable = durable;
    sr_stale = !stale;
  }

let test_stale_record () =
  List.iter
    (fun (elide, flushes, elided, deferred) ->
      let name fmt = Printf.sprintf ("elide=%b: " ^^ fmt) elide in
      let full = stale_record_run ~elide () in
      check full.sr_completed (name "the schedule completes");
      check full.sr_stale (name "the epoch-1 write is flushed after epoch 1");
      let s = full.sr_stats in
      Alcotest.(check int) (name "charged flushes") flushes s.Stats.flush;
      Alcotest.(check int) (name "charged fences") flushes s.Stats.fence;
      Alcotest.(check int) (name "elided flushes") elided s.Stats.flush_elided;
      Alcotest.(check int) (name "deferred records") deferred
        s.Stats.writes_deferred;
      Alcotest.(check int) (name "epoch advances") 3 s.Stats.epoch_advance;
      Alcotest.(check int) (name "uncut run recovers the write") 1
        full.sr_recovered;
      let early = ref false in
      for k = 0 to full.sr_steps do
        let c = stale_record_run ~elide ~max_steps:k () in
        Alcotest.(check int)
          (name "cut=%d: recovered value = media model" k)
          c.sr_model c.sr_recovered;
        if c.sr_recovered = 1 && c.sr_durable = 1 then early := true
      done;
      (* the stale snapshot carries epoch 1, already committed: it is
         restorable as soon as its fence lands, before epoch 2 commits *)
      check !early (name "some cut recovers the write at durable epoch 1"))
    [ (false, 2, 0, 2); (true, 1, 1, 1) ]

(* -- 6. allocation gate ------------------------------------------------------------ *)

(* Minor-heap words allocated by a one-domain buffered hash over a fixed
   seeded stream of updates (epoch length 256, 1024 keys half full) — the
   buffered twin of the strict gate in t_patomic.ml.  The count is exact
   for a fixed op count, so the bound is the measured total itself. *)
let buffered_words_ops = 20_000
let buffered_words_bound = 1_170_373

let buffered_hash_words () =
  let range = 1024 and warm = 2_000 and n = buffered_words_ops in
  let region = Region.create ~track_slots:false ~epoch_len:256 () in
  let (module S) = Sets.make Sets.Hash_ds (Support.prim region "buffered") in
  let t = S.create ~capacity:range () in
  List.iter (fun k -> ignore (S.insert t k k)) (W.prefill_keys ~range);
  Region.quiesce region;
  let rng = Rng.create 42 in
  let ops =
    Array.init (warm + n) (fun _ -> W.gen rng (W.of_updates 100) ~range)
  in
  let run lo hi =
    for i = lo to hi - 1 do
      match ops.(i) with
      | W.Lookup k -> ignore (S.contains t k)
      | Insert (k, _) -> ignore (S.insert t k i)
      | Remove k -> ignore (S.remove t k)
    done
  in
  (* the first ops touch the region's per-domain caches: keep them out *)
  run 0 warm;
  let w0 = Gc.minor_words () in
  run warm (warm + n);
  int_of_float (Gc.minor_words () -. w0)

let test_words_per_op_gate () =
  let w = buffered_hash_words () in
  check (w <= buffered_words_bound)
    (Printf.sprintf
       "buffered hash allocates %d words over %d ops (%.4f/op), bound %d" w
       buffered_words_ops
       (float_of_int w /. float_of_int buffered_words_ops)
       buffered_words_bound)

let suite =
  [
    ( "buffered",
      [
        Alcotest.test_case "unit cost at epoch length 1" `Quick
          test_unit_cost_len1;
        Alcotest.test_case "cost parity list (len 1)" `Quick
          (seq_cost_len1 Sets.List_ds);
        Alcotest.test_case "cost parity hash (len 1)" `Quick
          (seq_cost_len1 Sets.Hash_ds);
        Alcotest.test_case "cost parity bst (len 1)" `Quick
          (seq_cost_len1 Sets.Bst_ds);
        Alcotest.test_case "cost parity skiplist (len 1)" `Quick
          (seq_cost_len1 Sets.Skiplist_ds);
        Alcotest.test_case "crash in fence-to-bump window" `Quick
          test_crash_fence_bump_window;
        Alcotest.test_case "rollback to committed epoch" `Quick
          test_rollback_to_committed_epoch;
        Alcotest.test_case "empty help-advance is free" `Quick
          test_help_advance_empty_is_free;
        Alcotest.test_case "help-advance races" `Quick test_help_advance_races;
        Alcotest.test_case "crash torture list (buffered)" `Slow
          (torture_buffered Sets.List_ds);
        Alcotest.test_case "crash torture hash (buffered)" `Slow
          (torture_buffered Sets.Hash_ds);
        Alcotest.test_case "crash torture bst (buffered)" `Slow
          (torture_buffered Sets.Bst_ds);
        Alcotest.test_case "crash torture skiplist (buffered)" `Slow
          (torture_buffered Sets.Skiplist_ds);
        Alcotest.test_case "staleness bound list" `Slow
          (staleness_bound Sets.List_ds);
        Alcotest.test_case "staleness bound hash" `Slow
          (staleness_bound Sets.Hash_ds);
        Alcotest.test_case "staleness bound bst" `Slow
          (staleness_bound Sets.Bst_ds);
        Alcotest.test_case "staleness bound skiplist" `Slow
          (staleness_bound Sets.Skiplist_ds);
        Alcotest.test_case "media history bounded" `Quick test_history_bounded;
        Alcotest.test_case "unlinked node freed" `Quick
          test_unlinked_node_freed;
        Alcotest.test_case "cut races eviction" `Quick
          test_recut_races_eviction;
        Alcotest.test_case "retained words flat over epochs" `Quick
          test_retained_flat;
        QCheck_alcotest.to_alcotest prop_offer_matches_reference;
        Alcotest.test_case "stale record crash sweep" `Quick test_stale_record;
        Alcotest.test_case "words/op gate" `Quick test_words_per_op_gate;
      ] );
  ]
