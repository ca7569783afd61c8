(** Tests of the Mirror primitive itself: sequential semantics, the paper's
    lemmas as executable invariants under deterministic interleavings, the
    Figure 3 helping scenario, crash/recovery, and linearizability of the
    load/CAS implementation against an atomic-register specification
    (Lemma 5.2), and the variable's memory layout. *)

open Mirror_core
module Sched = Mirror_schedsim.Sched
module Region = Mirror_nvm.Region
module Slot = Mirror_nvm.Slot

let check = Support.check

let test_sequential_semantics () =
  let r = Support.fresh_region () in
  let v = Patomic.make r 5 in
  check (Patomic.load v = 5) "initial load";
  check (Patomic.cas v ~expected:5 ~desired:10) "cas 5->10";
  check (not (Patomic.cas v ~expected:5 ~desired:11)) "stale cas fails";
  check (Patomic.load v = 10) "cas visible";
  Patomic.store v 7;
  check (Patomic.load v = 7) "store visible";
  check (Patomic.fetch_add v 3 = 7) "faa returns old";
  check (Patomic.load v = 10) "faa applied";
  check (Patomic.seq_v v = Patomic.seq_p v) "replicas in sync when quiesced"

let test_compare_exchange_witness () =
  let r = Support.fresh_region () in
  let v = Patomic.make r 5 in
  let ok, wit = Patomic.compare_exchange v ~expected:9 ~desired:0 in
  check (not ok) "wrong expected fails";
  check (wit = 5) "witness is the current value";
  let ok, wit = Patomic.compare_exchange v ~expected:5 ~desired:6 in
  check ok "right expected succeeds";
  check (wit = 5) "witness echoes expected on success"

let test_durability_after_each_op () =
  (* every completed write is persistent the moment it returns *)
  let r = Support.fresh_region () in
  let v = Patomic.make r 0 in
  for i = 1 to 20 do
    Patomic.store v i;
    check (Patomic.persisted_value v = Some i)
      (Printf.sprintf "store %d persisted at response" i)
  done;
  ignore r

let test_crash_recover_quiesced () =
  let r = Support.fresh_region () in
  let v = Patomic.make r 0 in
  Patomic.store v 41;
  Patomic.store v 42;
  Region.crash r;
  Patomic.recover v;
  Region.mark_recovered r;
  check (Patomic.load v = 42) "last completed store survives";
  check (Patomic.cas v ~expected:42 ~desired:43) "usable after recovery"

let test_unrecovered_access_detected () =
  let r = Support.fresh_region () in
  let a = Patomic.make r 1 in
  let b = Patomic.make r 2 in
  Region.crash r;
  Patomic.recover a;
  Region.mark_recovered r;
  check (Patomic.load a = 1) "recovered variable readable";
  check
    (try
       ignore (Patomic.load b);
       false
     with Invalid_argument _ -> true)
    "untraced variable access is a detected bug"

(* -- the Figure 3 scenario -------------------------------------------------- *)

(* p1 writes 10, p2 writes 5 again.  Without sequence numbers p1's stale
   volatile write could resurrect 10 after p2's 5.  We explore EVERY
   interleaving of the two writers and check that once both complete the
   replicas agree (and a third observer never sees a value that was already
   overwritten at its read point — covered by the register check below). *)
let test_figure3_no_resurrection () =
  let explored, exhausted =
    Sched.explore_exhaustive ~limit:200_000 ~max_steps:10_000 (fun () ->
        let r = Support.fresh_region () in
        let v = Patomic.make r 5 in
        (* p1 writes 10; p2 tries to write 5 back on top of the 10 *)
        let t1 () = ignore (Patomic.cas v ~expected:5 ~desired:10) in
        let t2 () = ignore (Patomic.cas v ~expected:10 ~desired:5) in
        ( [ t1; t2 ],
          fun () ->
            check (Patomic.lemma54_ok v) "lemma 5.4 at quiescence";
            check (Patomic.peek_v v == Patomic.peek_p v)
              "replicas hold the same value at quiescence";
            check
              (Patomic.seq_v v = Patomic.seq_p v)
              "sequence numbers match at quiescence" ))
  in
  check (explored > 10) "explored many schedules";
  check exhausted "explored all schedules"

(* -- Lemma 5.2: register linearizability ------------------------------------ *)

type rec_ev = {
  op : Mirror_harness.Linearize.Register_spec.op;
  res : Mirror_harness.Linearize.Register_spec.res option;
  inv : int;
  resp : int;
}

let register_history_ok ~init events =
  let evs =
    List.map
      (fun e ->
        { Mirror_harness.Linearize.op = e.op; res = e.res; inv = e.inv; resp = e.resp })
      events
    |> Array.of_list
  in
  Mirror_harness.Linearize.check
    (module Mirror_harness.Linearize.Register_spec)
    ~init ~final_ok:(fun _ -> true) evs

let test_register_linearizable_random () =
  (* random schedules; unique CAS values so the witness structure is rigid *)
  for seed = 1 to 120 do
    let r = Support.fresh_region () in
    let v = Patomic.make r 0 in
    let clock = Atomic.make 0 in
    let log = ref [] in
    let record op res inv resp = log := { op; res = Some res; inv; resp } :: !log in
    let worker wid () =
      let rng = Mirror_workload.Rng.split ~seed wid in
      for i = 1 to 6 do
        let inv = Atomic.fetch_and_add clock 1 in
        if Mirror_workload.Rng.int rng 3 = 0 then begin
          let got = Patomic.load v in
          let resp = Atomic.fetch_and_add clock 1 in
          record Mirror_harness.Linearize.Register_spec.Load
            (Mirror_harness.Linearize.Register_spec.RInt got) inv resp
        end
        else begin
          let exp = Patomic.load v in
          let des = (wid * 1000) + i in
          let inv2 = Atomic.fetch_and_add clock 1 in
          let ok = Patomic.cas v ~expected:exp ~desired:des in
          let resp = Atomic.fetch_and_add clock 1 in
          ignore inv;
          record (Mirror_harness.Linearize.Register_spec.Cas (exp, des))
            (Mirror_harness.Linearize.Register_spec.RBool ok) inv2 resp
        end
      done
    in
    let o = Sched.run ~seed [ worker 1; worker 2; worker 3 ] in
    check o.Sched.completed "run completed";
    if not (register_history_ok ~init:0 (List.rev !log)) then
      Alcotest.failf "seed %d: patomic history not linearizable" seed
  done

let test_register_linearizable_exhaustive () =
  (* tiny fully-exhaustive configuration: 2 CASers + 1 loader *)
  let explored, _ =
    Sched.explore_exhaustive ~limit:150_000 ~max_steps:10_000 (fun () ->
        let r = Support.fresh_region () in
        let v = Patomic.make r 0 in
        let clock = Atomic.make 0 in
        let log = ref [] in
        let cas_task des () =
          let inv = Atomic.fetch_and_add clock 1 in
          let ok = Patomic.cas v ~expected:0 ~desired:des in
          let resp = Atomic.fetch_and_add clock 1 in
          log :=
            {
              op = Mirror_harness.Linearize.Register_spec.Cas (0, des);
              res = Some (Mirror_harness.Linearize.Register_spec.RBool ok);
              inv;
              resp;
            }
            :: !log
        in
        let load_task () =
          let inv = Atomic.fetch_and_add clock 1 in
          let got = Patomic.load v in
          let resp = Atomic.fetch_and_add clock 1 in
          log :=
            {
              op = Mirror_harness.Linearize.Register_spec.Load;
              res = Some (Mirror_harness.Linearize.Register_spec.RInt got);
              inv;
              resp;
            }
            :: !log
        in
        ( [ cas_task 1; cas_task 2; load_task ],
          fun () ->
            check
              (register_history_ok ~init:0 (List.rev !log))
              "exhaustive schedule linearizable" ))
  in
  check (explored > 50) "many schedules explored"

(* -- durability invariant under interleavings ------------------------------- *)

let test_durability_invariant_under_schedules () =
  for seed = 1 to 60 do
    let r = Support.fresh_region () in
    let v = Patomic.make r 0 in
    let writer wid () =
      for i = 1 to 5 do
        let cur = Patomic.load v in
        ignore (Patomic.cas v ~expected:cur ~desired:((wid * 100) + i));
        (* the volatile replica must never be ahead of the persisted state *)
        check (Patomic.durability_invariant_ok v) "repv <= persisted"
      done
    in
    let o = Sched.run ~seed [ writer 1; writer 2; writer 3 ] in
    check o.Sched.completed "completed";
    check (Patomic.lemma54_ok v) "lemma 5.4 holds at quiescence"
  done

(* -- crash mid-operation ----------------------------------------------------- *)

let test_crash_mid_cas () =
  (* cut a CAS at every possible protocol step; after recovery the value is
     either the old or the new one, and if the CAS completed it must be the
     new one *)
  for cut = 1 to 40 do
    let r = Support.fresh_region () in
    let v = Patomic.make r 5 in
    let completed = ref false in
    let task () =
      ignore (Patomic.cas v ~expected:5 ~desired:9);
      completed := true
    in
    ignore (Sched.run ~seed:1 ~max_steps:cut [ task ]);
    Region.crash r;
    Patomic.recover v;
    Region.mark_recovered r;
    let got = Patomic.load v in
    if !completed then check (got = 9) "completed cas survives the crash"
    else check (got = 5 || got = 9) "cut cas is atomic: old or new value"
  done

let test_helping_completes_stalled_write () =
  (* force the exact Figure 3 help: writer A is cut right after its
     persistent DWCAS (repp ahead of repv); a later reader-writer B must
     observe the protocol still linearizable and finish A's write *)
  let found_stalled = ref false in
  for cut = 1 to 40 do
    let r = Support.fresh_region () in
    let v = Patomic.make r 5 in
    ignore
      (Sched.run ~seed:1 ~max_steps:cut
         [ (fun () -> ignore (Patomic.cas v ~expected:5 ~desired:10)) ]);
    if Patomic.seq_p v = Patomic.seq_v v + 1 then begin
      found_stalled := true;
      (* no crash: another thread simply comes along and operates *)
      check (Patomic.cas v ~expected:10 ~desired:11) "helper sees A's value";
      check (Patomic.seq_v v = Patomic.seq_p v) "replicas resynced";
      check (Patomic.load v = 11) "helper's own write applied"
    end
  done;
  check !found_stalled "some cut point leaves repp one ahead (helping path)"

(* -- exhaustive durable verification ------------------------------------------ *)

(* For two concurrent CASes, EVERY schedule x EVERY crash point is verified
   durably linearizable: completed operations are mandatory events, cut
   ones optional, and the recovered value must be explained by some
   real-time-respecting linearization.  This is a (bounded) model-checking
   result for the protocol, not a sampled test. *)
let test_exhaustive_durable_register () =
  let total = ref 0 in
  for cut = 1 to 30 do
    let explored, _ =
      Sched.explore_exhaustive ~limit:20_000 ~max_steps:cut (fun () ->
          let r = Support.fresh_region () in
          let v = Patomic.make r 0 in
          let clock = Atomic.make 0 in
          let evs = Array.make 2 None in
          let cas_task i ~expected ~desired () =
            let inv = Atomic.fetch_and_add clock 1 in
            evs.(i) <- Some (expected, desired, inv, max_int, None);
            let ok = Patomic.cas v ~expected ~desired in
            let resp = Atomic.fetch_and_add clock 1 in
            evs.(i) <- Some (expected, desired, inv, resp, Some ok)
          in
          ( [ cas_task 0 ~expected:0 ~desired:1; cas_task 1 ~expected:1 ~desired:2 ],
            fun () ->
              incr total;
              Region.crash r;
              Patomic.recover v;
              Region.mark_recovered r;
              let recovered = Patomic.load v in
              let events =
                Array.to_list evs
                |> List.filter_map
                     (Option.map (fun (exp, des, inv, resp, ok) ->
                          {
                            Mirror_harness.Linearize.op =
                              Mirror_harness.Linearize.Register_spec.Cas
                                (exp, des);
                            res =
                              Option.map
                                (fun b ->
                                  Mirror_harness.Linearize.Register_spec.RBool b)
                                ok;
                            inv;
                            resp;
                          }))
              in
              Support.check
                (Mirror_harness.Linearize.check
                   (module Mirror_harness.Linearize.Register_spec)
                   ~init:0
                   ~final_ok:(fun s -> s = recovered)
                   (Array.of_list events))
                (Printf.sprintf
                   "cut %d: recovered value %d justified by the history" cut
                   recovered) ))
    in
    ignore explored
  done;
  Support.check (!total > 500) "verified hundreds of (schedule, crash) pairs"

(* -- qcheck properties -------------------------------------------------------- *)

let prop_random_ops_keep_invariants =
  QCheck.Test.make ~name:"patomic: random op sequences keep invariants"
    ~count:200
    QCheck.(list (pair (int_bound 2) (int_bound 50)))
    (fun ops ->
      let r = Support.fresh_region () in
      let v = Patomic.make r 0 in
      List.iter
        (fun (kind, x) ->
          match kind with
          | 0 -> Patomic.store v x
          | 1 -> ignore (Patomic.fetch_add v x)
          | _ ->
              let cur = Patomic.load v in
              ignore (Patomic.cas v ~expected:cur ~desired:x))
        ops;
      Patomic.lemma54_ok v
      && Patomic.durability_invariant_ok v
      && Patomic.peek_v v = Patomic.peek_p v
      && Patomic.persisted_value v = Some (Patomic.load v))

let prop_crash_recover_idempotent =
  QCheck.Test.make ~name:"patomic: recover after quiesced crash restores last value"
    ~count:100
    QCheck.(pair small_int (list small_int))
    (fun (init, writes) ->
      let r = Support.fresh_region () in
      let v = Patomic.make r init in
      List.iter (fun x -> Patomic.store v x) writes;
      let expect = match List.rev writes with [] -> init | x :: _ -> x in
      Region.crash r;
      Patomic.recover v;
      Region.mark_recovered r;
      Patomic.load v = expect)

(* -- the access-event stream, pinned ------------------------------------------ *)

(* A fixed schedsim scenario over strict and buffered Mirror lists: three
   logical threads run until a step budget cuts them mid-operation, the
   region crashes, the list is recovered, and three more threads finish.
   Every access event psan and mcheck consume is rendered as (op, slot,
   pair, tid, seq, line, protocol), with slot, pair and line uids renumbered
   in first-seen order (the raw uids are global counters).  The digests
   were taken when the replicas held separate { v; seq } cells and the slot
   announced the cell's seq; they still hold with the slot version serving
   as the sequence number, so no event psan or mcheck sees has moved. *)
let access_stream name =
  let module Sets = Mirror_dstruct.Sets in
  let module Hooks = Mirror_nvm.Hooks in
  let region = Region.create ~epoch_len:4 () in
  let (module S) = Sets.make Sets.List_ds (Support.prim region name) in
  let t = S.create ~capacity:16 () in
  let rc = Recovery.create region in
  Recovery.register_tracer rc (fun () -> S.recover t);
  let buf = Buffer.create 65536 in
  let renum tbl raw =
    if raw < 0 then raw
    else
      match Hashtbl.find_opt tbl raw with
      | Some i -> i
      | None ->
          let i = Hashtbl.length tbl in
          Hashtbl.add tbl raw i;
          i
  in
  let slots = Hashtbl.create 64
  and pairs = Hashtbl.create 64
  and lines = Hashtbl.create 64 in
  let record (a : Hooks.access) =
    Printf.bprintf buf "%s %d %d %d %d %d %b\n"
      (Hooks.access_op_name a.a_op)
      (renum slots a.a_slot) (renum pairs a.a_pair) a.a_tid a.a_seq
      (renum lines a.a_line) a.a_protocol
  in
  let worker w () =
    for i = 0 to 5 do
      let k = ((w * 3) + i) mod 12 in
      if i mod 2 = 0 then ignore (S.insert t k ((w * 100) + i))
      else ignore (S.remove t k)
    done
  in
  Hooks.with_access record (fun () ->
      for k = 0 to 5 do
        ignore (S.insert t (2 * k) k)
      done;
      ignore (Sched.run ~seed:3 ~max_steps:150 [ worker 0; worker 1; worker 2 ]);
      Recovery.crash rc;
      Recovery.recover rc;
      let o = Sched.run ~seed:5 [ worker 3; worker 4; worker 5 ] in
      check o.Sched.completed "post-recovery run completes");
  Buffer.contents buf

let test_access_stream_pinned () =
  List.iter
    (fun (name, want) ->
      let s = access_stream name in
      let events = List.length (String.split_on_char '\n' s) - 1 in
      Alcotest.(check string)
        (Printf.sprintf "%s list: digest of %d access events" name events)
        want
        (Digest.to_hex (Digest.string s)))
    [ ("mirror", "d7670847c8d0cb1378ac900768cb7b38"); ("buffered", "67d67acd569a0b40497e2f2c69a35b4c") ]

(* -- memory layout ------------------------------------------------------------ *)

let footprint_n = 1_000

(* Heap words one Mirror variable holds, over [footprint_n] int variables
   made on one slot-granular region: the words reachable from the
   variables, less the region's own words and the array holding them (an
   int payload takes none).  [~cas] runs one CAS on each and quiesces the
   region first.  On a tracked region the region's words are taken before
   the variables exist, so the crash-reset closures it keeps for them
   count as theirs. *)
let words_per_variable ?(track = false) ?(discipline = Patomic.Strict)
    ?(cas = false) () =
  let region = Region.create ~track_slots:track ~epoch_len:256 () in
  let before = Obj.reachable_words (Obj.repr region) in
  let vars = Array.init footprint_n (fun i -> Patomic.make ~discipline region i) in
  if cas then begin
    let ok = ref true in
    Array.iteri
      (fun i v -> ok := Patomic.cas v ~expected:i ~desired:(i + 1) && !ok)
      vars;
    check !ok "every CAS succeeds";
    Region.quiesce region
  end;
  let region_words =
    if track then before else Obj.reachable_words (Obj.repr region)
  in
  float_of_int
    (Obj.reachable_words (Obj.repr vars) - region_words - (footprint_n + 1))
  /. float_of_int footprint_n

(* The layout before one entry was shared between the replicas (a cell
   inside a slot entry, a validity box, a boxed lost flag, a seq extractor
   and an invalidation closure per variable) measured 41, 51 and 56 words
   under this test. *)
let test_footprint () =
  List.iter
    (fun (what, words, bound) ->
      check (words <= bound)
        (Printf.sprintf "%s: %.3f words per variable, bound %.0f" what words
           bound))
    [
      ("strict", words_per_variable (), 29.);
      ( "buffered after one CAS",
        words_per_variable ~discipline:Patomic.Buffered ~cas:true (),
        29. );
      ("strict on a tracked region", words_per_variable ~track:true (), 36.);
    ]

(* Minor-heap words allocated by a one-domain strict Mirror hash over a
   fixed seeded stream of updates (1024 keys half full) — the strict twin
   of the buffered gate in t_buffered.ml.  The count is exact for a fixed
   op count, so the bound is the measured total itself. *)
let strict_words_ops = 20_000
let strict_words_bound = 1_130_208

let strict_hash_words () =
  let module Sets = Mirror_dstruct.Sets in
  let module W = Mirror_workload.Workload in
  let module Rng = Mirror_workload.Rng in
  let range = 1024 and warm = 2_000 and n = strict_words_ops in
  let region = Region.create ~track_slots:false () in
  let (module S) = Sets.make Sets.Hash_ds (Support.prim region "mirror") in
  let t = S.create ~capacity:range () in
  List.iter (fun k -> ignore (S.insert t k k)) (W.prefill_keys ~range);
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

let test_strict_words_gate () =
  let w = strict_hash_words () in
  check (w <= strict_words_bound)
    (Printf.sprintf "strict hash allocates %d words over %d ops (%.4f/op), bound %d"
       w strict_words_ops
       (float_of_int w /. float_of_int strict_words_ops)
       strict_words_bound)

(* Minor words [n] calls of [f] allocate, after [n] warm-up calls: the
   first touch registers the domain's persist record for the region, and
   its arrays grow to their working size. *)
let words_of n f =
  for _ = 1 to n do
    f ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  int_of_float (Gc.minor_words () -. w0)

(* The persist rows of the layer ledger (perfbench --trace 1), exact on
   one domain: a charged flush records one 3-word (slot, snapshot) pair
   and the fence drains it in place; a deferred persist records one pair,
   and the advance every 256th one triggers sorts, flushes and cuts in
   place (28 words of closures per advance); a strict Mirror CAS
   allocates 16 words, its write-back pair among them. *)
let test_persist_path_words () =
  let n = 2560 in
  let region = Region.create ~track_slots:false () in
  let slot = Slot.make ~persist:true region 0 in
  let buffered = Region.create ~track_slots:false ~epoch_len:256 () in
  let bslot = Slot.make ~persist:true ~buffered:true buffered 0 in
  let p = Patomic.make region 0 and i = ref 0 in
  List.iter
    (fun (what, want, f) ->
      Alcotest.(check int) (Printf.sprintf "%s: words over %d calls" what n)
        want (words_of n f))
    [
      ( "flush + fence",
        3 * n,
        fun () ->
          Slot.flush slot;
          Region.fence region );
      ( "persist_deferred",
        (3 * n) + (28 * n / 256),
        fun () -> Slot.persist_deferred bslot );
      ( "Mirror CAS",
        16 * n,
        fun () ->
          let v = !i in
          i := v + 1;
          if not (Patomic.cas p ~expected:v ~desired:(v + 1)) then
            Alcotest.fail "cas failed" );
    ]

(* One block per write: after a quiesced strict CAS, the volatile replica,
   the persistent replica's coherent view and the head of its media
   history are the very entry the CAS built. *)
let test_one_block_per_write () =
  let r = Support.fresh_region () in
  let v = Patomic.make r 5 in
  check (Patomic.cas v ~expected:5 ~desired:6) "cas";
  let repv, repp, front = Patomic.entries v in
  check (repv == repp) "repv holds repp's current entry";
  check
    (match front with Some e -> e == repp | None -> false)
    "the media-front head is the same entry";
  check (repp.ver = 1 && repp.v = 6) "the entry is the CAS's (seq 1)"

(* A crash invalidates every Mirror variable, tracked region or not: each
   compares its stamp with the region's crash count, so no registration is
   needed for the access to be caught. *)
let test_untracked_crash_invalidates () =
  let r = Support.fresh_region ~track:false () in
  let v = Patomic.make r 1 in
  Patomic.store v 2;
  Region.crash r;
  Region.mark_recovered r;
  check
    (try
       ignore (Patomic.load v);
       false
     with Invalid_argument _ -> true)
    "access before recovery raises";
  Patomic.recover v;
  check (Patomic.load v = 2) "recovered variable readable";
  check (Patomic.cas v ~expected:2 ~desired:3) "and writable"

let suite =
  [
    ( "patomic",
      [
        Alcotest.test_case "sequential semantics" `Quick
          test_sequential_semantics;
        Alcotest.test_case "compare_exchange witness" `Quick
          test_compare_exchange_witness;
        Alcotest.test_case "durability after each op" `Quick
          test_durability_after_each_op;
        Alcotest.test_case "crash + recover (quiesced)" `Quick
          test_crash_recover_quiesced;
        Alcotest.test_case "unrecovered access detected" `Quick
          test_unrecovered_access_detected;
        Alcotest.test_case "figure 3: no resurrection" `Quick
          test_figure3_no_resurrection;
        Alcotest.test_case "register linearizability (random)" `Quick
          test_register_linearizable_random;
        Alcotest.test_case "register linearizability (exhaustive)" `Quick
          test_register_linearizable_exhaustive;
        Alcotest.test_case "durability invariant under schedules" `Quick
          test_durability_invariant_under_schedules;
        Alcotest.test_case "crash mid-CAS" `Quick test_crash_mid_cas;
        Alcotest.test_case "helping completes stalled write" `Quick
          test_helping_completes_stalled_write;
        Alcotest.test_case "exhaustive durable register" `Quick
          test_exhaustive_durable_register;
        QCheck_alcotest.to_alcotest prop_random_ops_keep_invariants;
        QCheck_alcotest.to_alcotest prop_crash_recover_idempotent;
        Alcotest.test_case "access stream pinned" `Quick
          test_access_stream_pinned;
        Alcotest.test_case "words per variable" `Quick test_footprint;
        Alcotest.test_case "one block per write" `Quick
          test_one_block_per_write;
        Alcotest.test_case "strict hash words gate" `Quick
          test_strict_words_gate;
        Alcotest.test_case "persist path words" `Quick
          test_persist_path_words;
        Alcotest.test_case "untracked crash invalidates" `Quick
          test_untracked_crash_invalidates;
      ] );
  ]
