(* The repository benchmark: three closed-loop workloads that split Mirror's
   write path (strict_update), read and restart path (read_restart) and
   buffered path (buffered_update).  README.md has the workloads, the
   metric-to-layer map and the traced run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of stdout is the result as one JSON object; the lines
   before it print every metric by name with its unit and sample count.
   The exit code is 1 when any correctness check failed. *)

open Bigarray
open Mirror_nvm
open Mirror_core
open Mirror_dstruct
module W = Mirror_workload.Workload
module Rng = Mirror_workload.Rng

type spec = {
  name : string;
  ds : Sets.ds;
  prim : string;
  range : int;
  mix : W.mix;
  epoch_len : int;
  track_slots : bool;
  restart : bool;
      (** bursts of {ops -> crash -> recover -> contents check} *)
  why : string;
}

let specs =
  [
    {
      name = "strict_update";
      ds = Sets.Hash_ds;
      prim = "mirror";
      range = 4096;
      mix = W.of_updates 100;
      epoch_len = 1;
      track_slots = false;
      restart = false;
      why =
        "every op takes the strict persist path (DWCAS on repp, flush, \
         fence, mirror into repv) over an L2-resident hash";
    };
    {
      name = "read_restart";
      ds = Sets.Bst_ds;
      prim = "mirror";
      range = 1 lsl 12;
      mix = W.ycsb_b;
      epoch_len = 1;
      track_slots = true;
      restart = true;
      why =
        "reads from the volatile replica over a BST larger than L2 dominate, \
         and only this workload crashes and recovers";
    };
    {
      name = "buffered_update";
      ds = Sets.Hash_ds;
      prim = "buffered";
      range = 4096;
      mix = W.of_updates 100;
      epoch_len = 256;
      track_slots = false;
      restart = false;
      why =
        "only workload on the epoch clock: deferred write-backs, the \
         synchronous advance and the region mutex";
    };
  ]

(* A run is made of rounds.  Each sets a structure up afresh and runs this
   many ops on it, then makes its epochs durable and checks its
   contents.  The first round is the warm-up, untimed; [retained_mb] is read
   right after it.  The measured rounds run until [--seconds] have passed.
   With a fixed count of ops per structure, every round does the same work,
   whatever the speed of the host or of the program, so the results do not
   depend on how far a run got; and the libraries' known growth over a
   structure's life (see README.md) cannot drift a run.  [round_cap_s] only
   guards against a hang. *)
let round_ops = 100_000
let round_cap_s = 60.

(* Untraced/traced slice pairs of a traced run. *)
let trace_slices = 4

(* read_restart: ops between two restarts, the same in every round so each
   round does the same work. *)
let burst_ops = 20_000

(* The other workloads run their ops in op loops of this many ns, so that
   the calibrator ({!Calib}) runs often enough to follow the host's speed. *)
let loop_ns = 50_000_000

(* -- inputs ---------------------------------------------------------------- *)

(* Ops in the stream; the worker starts it over when it reaches the end. *)
let stream_len = 1 lsl 20

(* One op is one int: the kind in bits 0-1 (0 lookup, 1 insert, 2 remove),
   the key in the next [key_bits] bits, an insert's value above them. *)
let key_bits = 20
let key_mask = (1 lsl key_bits) - 1
let kinds = [| "contains"; "insert"; "remove" |]

(* The worker's stream, from the seed's first [Rng.split]. *)
let stream spec ~seed =
  let rng = Rng.split ~seed 0 in
  let a = Array1.create int c_layout stream_len in
  for j = 0 to stream_len - 1 do
    a.{j} <-
      (match W.gen rng spec.mix ~range:spec.range with
      | W.Lookup k -> k lsl 2
      | W.Insert (k, v) -> (v lsl (key_bits + 2)) lor (k lsl 2) lor 1
      | W.Remove k -> (k lsl 2) lor 2)
  done;
  a

(* -- the structure under test ---------------------------------------------- *)

type instance = {
  region : Region.t;
  recovery : Recovery.t;
  insert : int -> int -> bool;
  remove : int -> bool;
  contains : int -> bool;
  contents : unit -> (int * int) list;
  tracer : (int * int) ref;  (** bounds of the registered tracer's last run *)
}

(* Region creation, prefill and quiesce: what [setup_s] times. *)
let setup spec keys =
  let region =
    Region.create ~track_slots:spec.track_slots ~epoch_len:spec.epoch_len ()
  in
  let (module S : Sets.SET) =
    Sets.make spec.ds (Mirror_prim.Prim.by_name region spec.prim)
  in
  let t = S.create ~capacity:spec.range () in
  List.iter (fun k -> ignore (S.insert t k k)) keys;
  Region.quiesce region;
  let recovery = Recovery.create region in
  let tracer = ref (0, 0) in
  Recovery.register_tracer recovery (fun () ->
      let t0 = Clock.now () in
      S.recover t;
      tracer := (t0, Clock.now ()));
  {
    region;
    recovery;
    insert = S.insert t;
    remove = S.remove t;
    contains = S.contains t;
    contents = (fun () -> S.to_list t);
    tracer;
  }

(* -- workers --------------------------------------------------------------- *)

(* What the worker carries from phase to phase. *)
type state = {
  stream : (int, int_elt, c_layout) Array1.t;
  model : int array;  (** value per key, [-1] when absent *)
  mutable pos : int;  (** next op in [stream] *)
  mutable op_id : int;  (** ops done so far, the id of the next op span *)
  cal : Calib.t;  (** the worker domain's calibrator *)
  mutable tr : Trace.t option;  (** the worker's span recorder, once traced *)
}

(* One op loop: its thread-CPU ns, and the calibrator's factor
   ({!Calib.scale}) measured right before it. *)
type loop = { cpu : int; scale : float }

(* What a run counts in one of its parts (the warm-up, the measured rounds,
   the traced rounds), summed over that part's rounds. *)
type tally = {
  hists : Hist.t array;  (** op latency per kind *)
  stats : Stats.t;  (** the worker's counters, op loops only *)
  mutable ops : int;
  mutable op_ns : int;  (** wall time in op loops *)
  mutable loops : loop list;  (** one per op loop *)
  mutable checks : int;
  mutable failed : int;
  mutable inserts_ok : int;
  mutable minor_words : float;  (** the worker domain's own, op loops only *)
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable restarts : int list;  (** crash + recover, ns *)
  mutable crashes : int list;
  mutable recovers : int list;
  mutable tracers : int list;
  mutable trace : (Trace.t * Trace.span * Trace.agg array) option;
  (* access-sink state, traced phase only *)
  mutable events : int;
  mutable closed : bool;  (** the running op closed an epoch *)
  mutable close_t : int;
  mutable advances : int list;  (** epoch close -> durable bump, ns *)
  mutable adv_op_ns : int;  (** time in ops that closed an epoch *)
}

let tally () =
  {
    hists = Array.init 3 (fun _ -> Hist.create ());
    stats = Stats.zero ();
    ops = 0;
    op_ns = 0;
    loops = [];
    checks = 0;
    failed = 0;
    inserts_ok = 0;
    minor_words = 0.;
    minor_gcs = 0;
    major_gcs = 0;
    restarts = [];
    crashes = [];
    recovers = [];
    tracers = [];
    trace = None;
    events = 0;
    closed = false;
    close_t = -1;
    advances = [];
    adv_op_ns = 0;
  }

(* The access sink of the traced phase: the worker domain counts into its
   tally, found through domain-local storage. *)
let sink_key : tally option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let sink (a : Hooks.access) =
  match Domain.DLS.get sink_key with
  | None -> ()
  | Some tl -> (
      tl.events <- tl.events + 1;
      match a.a_op with
      | Hooks.A_epoch_close ->
          tl.closed <- true;
          tl.close_t <- Clock.now ()
      | Hooks.A_epoch_bump when tl.close_t >= 0 ->
          tl.advances <- (Clock.now () - tl.close_t) :: tl.advances;
          tl.close_t <- -1
      | _ -> ())

(* Restarts and checks run with the sink off, so their timings compare with
   the untraced run. *)
let without_access f =
  let on = !Hooks.access_on in
  Hooks.access_on := false;
  Fun.protect ~finally:(fun () -> Hooks.access_on := on) f

(* Run ops from the worker's stream until [max_ops] are done or the clock
   passes [until]; time each, check each result against the model.  Op
   latencies are recorded at the reference CPU speed, [scale] being the
   calibrator's factor for this loop. *)
let op_loop inst st tl ~scale ~max_ops ~until =
  let s = Stats.get () in
  Stats.clear s;
  let w0 = Gc.minor_words () in
  let cpu0 = Clock.thread_cpu () in
  let start = Clock.now () in
  let n = ref 0 and stop = ref false in
  while not !stop do
    let code = Array1.unsafe_get st.stream st.pos in
    st.pos <- (if st.pos = stream_len - 1 then 0 else st.pos + 1);
    let kind = code land 3 and key = (code lsr 2) land key_mask in
    tl.closed <- false;
    let t0 = Clock.now () in
    let r =
      match kind with
      | 0 -> inst.contains key
      | 1 -> inst.insert key (code lsr (key_bits + 2))
      | _ -> inst.remove key
    in
    let t1 = Clock.now () in
    Hist.add tl.hists.(kind)
      (int_of_float ((float_of_int (t1 - t0) *. scale) +. 0.5));
    if tl.closed then tl.adv_op_ns <- tl.adv_op_ns + (t1 - t0);
    (match tl.trace with
    | Some (tr, up, aggs) -> Trace.op tr aggs.(kind) ~up ~index:st.op_id ~t0 ~t1
    | None -> ());
    st.op_id <- st.op_id + 1;
    let m = st.model.(key) in
    if r <> if kind = 1 then m < 0 else m >= 0 then tl.failed <- tl.failed + 1;
    if r then
      if kind = 1 then begin
        st.model.(key) <- code lsr (key_bits + 2);
        tl.inserts_ok <- tl.inserts_ok + 1
      end
      else if kind = 2 then st.model.(key) <- -1;
    incr n;
    if !n >= max_ops || t1 >= until then stop := true
  done;
  let ns = Clock.now () - start in
  let cpu = Clock.thread_cpu () - cpu0 in
  tl.op_ns <- tl.op_ns + ns;
  tl.loops <- { cpu; scale } :: tl.loops;
  tl.ops <- tl.ops + !n;
  tl.minor_words <- tl.minor_words +. (Gc.minor_words () -. w0);
  Stats.add ~into:tl.stats s

(* The contents the model expects, sorted by key. *)
let expected st =
  Array.to_list st.model
  |> List.mapi (fun k v -> (k, v))
  |> List.filter (fun (_, v) -> v >= 0)

let check inst st tl =
  tl.checks <- tl.checks + 1;
  if inst.contents () <> expected st then tl.failed <- tl.failed + 1

(* Crash (adversarial: only flushed and fenced writes survive), recover,
   then require exactly the acknowledged contents back. *)
let restart inst st tl =
  let t0 = Clock.now () in
  Recovery.crash ~policy:Region.Adversarial inst.recovery;
  let t1 = Clock.now () in
  Recovery.recover inst.recovery;
  let t2 = Clock.now () in
  let a, b = !(inst.tracer) in
  tl.restarts <- (t2 - t0) :: tl.restarts;
  tl.crashes <- (t1 - t0) :: tl.crashes;
  tl.recovers <- (t2 - t1) :: tl.recovers;
  tl.tracers <- (b - a) :: tl.tracers;
  match tl.trace with
  | None -> check inst st tl
  | Some (tr, up, _) ->
      let rs = Trace.enter tr ~up ~t0 "restart" in
      Trace.leave tr ~t1 (Trace.enter tr ~up:rs ~t0 "crash");
      let rc = Trace.enter tr ~up:rs ~t0:t1 "recover" in
      Trace.leave tr ~t1:b (Trace.enter tr ~up:rc ~t0:a "tracer");
      Trace.leave tr ~t1:t2 rc;
      Trace.leave tr ~t1:t2 rs;
      let cs = Trace.enter tr ~up "check" in
      check inst st tl;
      Trace.leave tr cs

(* The worker: ops until [tl] counts [max_ops] or [until] has passed.  A
   calibration probe ({!Calib}) precedes every op loop. *)
let worker spec inst st tl ~max_ops ~until ~traced =
  let up =
    if traced then begin
      let tr =
        match st.tr with
        | Some tr -> tr
        | None ->
            let tr = Trace.create 1 in
            st.tr <- Some tr;
            tr
      in
      let up = Trace.enter tr "phase" in
      tl.trace <-
        Some (tr, up, Array.map (fun k -> Trace.agg tr ("op." ^ k)) kinds);
      Domain.DLS.set sink_key (Some tl);
      Some (tr, up)
    end
    else None
  in
  let go = ref true in
  while !go do
    let scale = Calib.scale st.cal in
    if spec.restart then begin
      op_loop inst st tl ~scale
        ~max_ops:(min burst_ops (max_ops - tl.ops))
        ~until:max_int;
      without_access (fun () -> restart inst st tl)
    end
    else
      op_loop inst st tl ~scale ~max_ops:(max_ops - tl.ops)
        ~until:(min until (Clock.now () + loop_ns));
    go := tl.ops < max_ops && Clock.now () < until
  done;
  Option.iter (fun (tr, up) -> Trace.leave tr up) up

(* One closed-loop phase, counted into [tl]: a worker domain, the main
   domain blocked in [Domain.join] while it runs until it has done
   [max_ops] more ops or [seconds] have passed.  Traced phases record spans
   and install the access sink. *)
let phase ~max_ops spec inst st tl ~seconds ~traced =
  let gc0 = Gc.quick_stat () in
  let max_ops = tl.ops + max_ops in
  let run () =
    Domain.join
      (Domain.spawn (fun () ->
           let until = Clock.now () + int_of_float (seconds *. 1e9) in
           worker spec inst st tl ~max_ops ~until ~traced))
  in
  if traced then Hooks.with_access sink run else run ();
  let gc1 = Gc.quick_stat () in
  tl.minor_gcs <- tl.minor_gcs + gc1.minor_collections - gc0.minor_collections;
  tl.major_gcs <- tl.major_gcs + gc1.major_collections - gc0.major_collections

(* -- metrics --------------------------------------------------------------- *)

(* Ops over the wall time in op loops (restarts and checks excluded). *)
let wall_ops_per_s tl = float_of_int tl.ops /. (float_of_int tl.op_ns /. 1e9)

(* Throughput at the reference CPU speed: ops over the time the worker's
   thread ran in op loops (so not the time the host took its CPU away),
   each op loop's time taken to the reference speed by its {!Calib.scale}. *)
let ops_per_s tl =
  let ref_ns =
    List.fold_left
      (fun acc sl -> acc +. (float_of_int sl.cpu *. sl.scale))
      0. tl.loops
  in
  float_of_int tl.ops /. (ref_ns /. 1e9)

(* How fast the host ran against the reference CPU: the median {!Calib.scale}
   over all op loops. *)
let cpu_speed tl =
  let a = Array.of_list (List.map (fun sl -> sl.scale) tl.loops) in
  Array.sort compare a;
  if a = [||] then None else Some a.(Array.length a / 2)

let hists ?kind tl =
  match kind with Some k -> [ tl.hists.(k) ] | None -> Array.to_list tl.hists

let us = Option.map (fun ns -> float_of_int ns /. 1e3)

let percentile l q =
  match List.sort compare l with
  | [] -> None
  | sorted ->
      let n = List.length sorted in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
      Some (List.nth sorted (rank - 1))

let ms_p l q = Option.map (fun ns -> float_of_int ns /. 1e6) (percentile l q)
let per_op tl x = Some (float_of_int x /. float_of_int (max 1 tl.ops))
let per_kop tl x = Some (1e3 *. float_of_int x /. float_of_int (max 1 tl.ops))

(* A metric: name, value ([None] = n/a on this workload), unit, samples. *)
type metric = string * float option * string * int

let end_to_end a ~retained_words ~setup_ns ~setup_wall_ns ~attempted ~failed :
    metric list =
  let n = a.ops and lat = hists a in
  let restarts = a.restarts in
  let top_heap = (Gc.quick_stat ()).top_heap_words in
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576. in
  [
    ( "setup_s",
      Option.map (fun ns -> float_of_int ns /. 1e9) (percentile setup_ns 0.5),
      "s",
      List.length setup_ns );
    ( "setup_wall_s",
      Option.map (fun ns -> float_of_int ns /. 1e9) (percentile setup_wall_ns 0.5),
      "s",
      List.length setup_wall_ns );
    ("ops_per_s", Some (ops_per_s a), "1/s", n);
    ("wall_ops_per_s", Some (wall_ops_per_s a), "1/s", n);
    ("cpu_speed", cpu_speed a, "ratio", List.length a.loops);
    ("op_p50_us", us (Hist.quantile lat 0.5), "us", n);
    ("op_p99_us", us (Hist.quantile lat 0.99), "us", n);
    ("op_p999_us", us (Hist.quantile lat 0.999), "us", n);
    ("modeled_ns_per_op", Some (Model.ns a.stats n), "ns", n);
    ("heap_peak_mb", Some (mb top_heap), "MB", 1);
    ("retained_mb", Some (mb retained_words), "MB", 1);
    ( "error_ratio",
      Some (float_of_int failed /. float_of_int attempted),
      "ratio",
      attempted );
    ("restart_p50_ms", ms_p restarts 0.5, "ms", List.length restarts);
    ("restart_p90_ms", ms_p restarts 0.9, "ms", List.length restarts);
  ]

(* Names the JSON result carries for an untraced run (BENCHMARK.json's
   end_to_end).  The others are printed only:
   - [error_ratio] is 0 when all is well (the result line carries [failed]
     and [attempted] instead);
   - the restart metrics exist on read_restart alone;
   - [op_p999_us] on strict_update sits where the OS timer tick's share of
     ops (about 0.1%) crosses it, and jumps between about 5 and 20 us from
     run to run;
   - [heap_peak_mb] depends on when the major GC runs (its quartile spread
     over seeds is 0.4 of its median on buffered_update); [retained_mb]
     stands in for it. *)
let json_end_to_end =
  [
    "setup_s";
    "ops_per_s";
    "op_p50_us";
    "op_p99_us";
    "modeled_ns_per_op";
    "retained_mb";
  ]

(* Per-layer metrics of a traced run.  [a] is its untraced part, which
   gives the allocation and per-kind latency metrics (the access sink makes
   the substrate allocate an event record per access); [b] is its traced
   part, which gives the rest. *)
let per_layer a b (ledger : Ledger.entry list) : metric list =
  let s = b.stats and nb = b.ops and na = a.ops in
  let po x = per_op b x and pk x = per_kop b x in
  let advances = b.advances in
  let kind_p50 k = us (Hist.quantile (hists ~kind:k a) 0.5) in
  let kind_n k = Hist.count (hists ~kind:k a) in
  let inserts = kind_n 1 in
  let restarts = List.length b.restarts in
  let ledger_metrics =
    List.concat_map
      (fun (e : Ledger.entry) ->
        let words =
          match e.name with
          | "slot_store" | "flush_fence" | "patomic_cas" ->
              [ ("ledger." ^ e.name ^ "_words", Some e.words, "words", Ledger.reps) ]
          | _ -> []
        in
        ("ledger." ^ e.name ^ "_ns", Some e.ns, "ns", Ledger.reps) :: words)
      ledger
  in
  [
    ("slot.nvm_reads_per_op", po s.nvm_read, "1/op", nb);
    ("slot.nvm_writes_per_op", po (s.nvm_write + s.nvm_cas), "1/op", nb);
    ("slot.flushes_per_op", po s.flush, "1/op", nb);
    ("slot.flushes_elided_per_op", po s.flush_elided, "1/op", nb);
    ("slot.flushes_coalesced_per_op", po s.flush_coalesced, "1/op", nb);
    ("region.fences_per_op", po s.fence, "1/op", nb);
    ("region.writes_deferred_per_op", po s.writes_deferred, "1/op", nb);
    ("region.epoch_advances_per_kop", pk s.epoch_advance, "1/kop", nb);
    ("region.fences_batched_per_op", po s.fence_batched, "1/op", nb);
    ("region.advance_us_p50", us (percentile advances 0.5), "us",
     List.length advances);
    ("region.advance_us_p99", us (percentile advances 0.99), "us",
     List.length advances);
    ( "region.advance_time_share",
      (if advances = [] then None
       else
         Some
           (float_of_int b.adv_op_ns
           /. float_of_int (Hist.sum (hists b)))),
      "ratio",
      nb );
    ("region.crash_ms", ms_p b.crashes 0.5, "ms", restarts);
    ("patomic.repv_reads_per_op", po s.dram_read, "1/op", nb);
    ("patomic.dwcas_per_op", po s.nvm_cas, "1/op", nb);
    ("patomic.help_per_op", po s.help, "1/op", nb);
    ("patomic.cas_retry_per_op", po s.cas_retry, "1/op", nb);
    ("alloc.objects_per_op", po s.alloc, "1/op", nb);
    ("ebr.reclaims_per_op", po s.reclaim, "1/op", nb);
    ( "recovery.recover_ms_p50",
      ms_p b.recovers 0.5,
      "ms",
      restarts );
    ( "recovery.tracer_ms_p50",
      ms_p b.tracers 0.5,
      "ms",
      restarts );
    ("dstruct.insert_us_p50", kind_p50 1, "us", kind_n 1);
    ("dstruct.remove_us_p50", kind_p50 2, "us", kind_n 2);
    ("dstruct.contains_us_p50", kind_p50 0, "us", kind_n 0);
    ( "dstruct.insert_ok_ratio",
      (if inserts = 0 then None
       else
         Some
           (float_of_int a.inserts_ok
           /. float_of_int inserts)),
      "ratio",
      inserts );
    ( "gc.minor_words_per_op",
      Some (a.minor_words /. float_of_int (max 1 na)),
      "words/op",
      na );
    ("gc.minor_collections_per_kop", per_kop a a.minor_gcs, "1/kop", na);
    ("gc.major_collections_per_kop", per_kop a a.major_gcs, "1/kop", na);
    ("hooks.access_events_per_op", po b.events, "1/op", nb);
  ]
  @ ledger_metrics
  @ [
      ( "trace.overhead_pct",
        Some (100. *. (ops_per_s a -. ops_per_s b) /. ops_per_s a),
        "%",
        na + nb );
    ]

(* -- output ---------------------------------------------------------------- *)

let print_metric ((name, v, unit, n) : metric) =
  match v with
  | Some v -> Printf.printf "metric %-34s %16.6f %-8s n=%d\n" name v unit n
  | None -> Printf.printf "metric %-34s %16s %-8s n=%d\n" name "n/a" unit n

(* The result line.  A value that is n/a on this workload is written as 0:
   the result line admits numbers only. *)
let result_json ~correct ~attempted ~failed (ms : metric list) =
  let metric (name, v, unit, _) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
      (Option.value v ~default:0.)
      unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric ms))

let print_spans ts =
  Printf.printf "%-14s %9s %12s %12s\n" "span" "count" "total_ms" "self_ms";
  List.iter
    (fun (name, n, tot, self) ->
      Printf.printf "%-14s %9d %12.3f %12.3f\n" name n
        (float_of_int tot /. 1e6)
        (float_of_int self /. 1e6))
    (Trace.summary ts)

let trace_dir = Filename.concat "perfbench" "traces"

(* -- driver ---------------------------------------------------------------- *)

let run spec ~seed ~seconds ~traced =
  (* The documented device model and no injection, whatever the
     environment's MIRROR_* variables say. *)
  Latency.set_config Latency.default;
  Latency.set_enabled false;
  Latency.set_numa_remote_ns 0;
  let resolution = Clock.resolution () in
  Printf.printf "clock bechamel.monotonic_clock resolution_ns=%d\n" resolution;
  if resolution > 1_000 then begin
    prerr_endline "perfbench: the clock cannot resolve sub-microsecond ops";
    exit 2
  end;
  Printf.printf
    "params ds=%s prim=%s range=%d prefill=%d mix=%d/%d/%d workers=1 \
     epoch_len=%d track_slots=%b restart=%b burst_ops=%d round_ops=%d\n"
    (Sets.ds_name spec.ds) spec.prim spec.range (spec.range / 2)
    spec.mix.lookup_pct spec.mix.insert_pct spec.mix.remove_pct
    spec.epoch_len spec.track_slots spec.restart burst_ops round_ops;
  Printf.printf "why %s\n%!" spec.why;
  let ledger = if traced then Ledger.run () else [] in
  let main_trace = Trace.create 0 in
  let st =
    {
      stream = stream spec ~seed;
      model = Array.make spec.range (-1);
      pos = 0;
      op_id = 0;
      cal = Calib.create ();
      tr = None;
    }
  in
  let keys = W.prefill_keys ~range:spec.range in
  let prefill_model () =
    Array.fill st.model 0 spec.range (-1);
    List.iter (fun k -> st.model.(k) <- k) keys
  in
  (* Every round's set-up is timed: its thread-CPU time taken to the
     reference speed, and its wall time.  [setup_s] is their median. *)
  let setup_ns = ref [] and setup_wall_ns = ref [] in
  let cal = Calib.create () in
  let timed_setup () =
    let scale = Calib.scale cal in
    let sp = Trace.enter main_trace "setup" in
    let t0 = Clock.now () and cpu0 = Clock.thread_cpu () in
    let inst = setup spec keys in
    let cpu = Clock.thread_cpu () - cpu0 in
    setup_wall_ns := (Clock.now () - t0) :: !setup_wall_ns;
    setup_ns := int_of_float (float_of_int cpu *. scale) :: !setup_ns;
    Trace.leave main_trace sp;
    prefill_model ();
    inst
  in
  let checks = tally () in
  (* One round on [inst], counted into [tl]: [round_ops] ops, then its
     epochs made durable and its contents checked. *)
  let round inst tl ~traced =
    phase ~max_ops:round_ops spec inst st tl ~seconds:round_cap_s ~traced;
    Region.quiesce inst.region;
    check inst st checks
  in
  let warmup = tally () in
  let retained_words =
    let inst = timed_setup () in
    round inst warmup ~traced:false;
    (* the structure and its region after a fixed amount of work *)
    Obj.reachable_words (Obj.repr inst)
  in
  (* Whole rounds on fresh structures, counted into [tl], until [seconds]
     have passed. *)
  let measure tl ~seconds ~traced =
    let stop = Clock.now () + int_of_float (seconds *. 1e9) in
    let first = ref true in
    while !first || Clock.now () < stop do
      first := false;
      round (timed_setup ()) tl ~traced
    done
  in
  (* The measured part [a].  A traced run splits its time between an
     untraced part [a] and a traced part [b], run as alternating slices so
     that drift of the host over the run falls on both alike. *)
  let a = tally () and b = if traced then Some (tally ()) else None in
  (match b with
  | Some b ->
      let slice = seconds /. float_of_int (2 * trace_slices) in
      for _ = 1 to trace_slices do
        measure a ~seconds:slice ~traced:false;
        measure b ~seconds:slice ~traced:true
      done
  | None -> measure a ~seconds ~traced:false);
  let tallies = checks :: warmup :: a :: Option.to_list b in
  let count f = List.fold_left (fun acc tl -> acc + f tl) 0 tallies in
  let attempted = count (fun tl -> tl.ops + tl.checks) in
  let failed = count (fun tl -> tl.failed) in
  let metrics =
    match b with
    | Some b ->
        let ts =
          main_trace :: Option.to_list st.tr
        in
        if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
        let path =
          Filename.concat trace_dir
            (Printf.sprintf "%s-seed%d.jsonl" spec.name seed)
        in
        let n = Trace.write path ts in
        Printf.printf "trace %d spans written to %s\n" n path;
        print_spans ts;
        List.iter
          (fun (e : Ledger.entry) ->
            Printf.printf "ledger %-16s %10.2f ns %8.2f words  model %8.2f ns\n"
              e.name e.ns e.words e.model_ns)
          ledger;
        let ms = per_layer a b ledger in
        List.iter print_metric ms;
        ms
    | None ->
        let ms =
          end_to_end a ~retained_words ~setup_ns:!setup_ns
            ~setup_wall_ns:!setup_wall_ns ~attempted ~failed
        in
        List.iter print_metric ms;
        List.filter (fun (name, _, _, _) -> List.mem name json_end_to_end) ms
  in
  Printf.printf "error_ratio %.6f (failed=%d attempted=%d)\n"
    (float_of_int failed /. float_of_int attempted) failed attempted;
  print_endline (result_json ~correct:(failed = 0) ~attempted ~failed metrics);
  if failed > 0 then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let names = List.map (fun s -> s.name) specs in
  Arg.parse
    [
      ("--workload", Arg.Symbol (names, ( := ) workload), " workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the op streams (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 1 = the traced run (default 0)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  match List.find_opt (fun s -> s.name = !workload) specs with
  | None ->
      prerr_endline "perfbench: --workload is required";
      exit 2
  | Some spec ->
      if !trace <> 0 && !trace <> 1 then begin
        prerr_endline "perfbench: --trace takes 0 or 1";
        exit 2
      end;
      Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n"
        spec.name !seed !seconds !trace;
      run spec ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
