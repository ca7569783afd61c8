(** Descriptors for every panel of Figures 6 and 7 of the paper, and the
    machinery to regenerate them.  See DESIGN.md §4 for the panel-by-panel
    index and EXPERIMENTS.md for paper-vs-measured notes. *)

open Mirror_dstruct

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

let algo_name = function
  | Orig_dram -> "orig-dram"
  | Orig_nvmm -> "orig-nvmm"
  | Izraelevitz -> "izraelevitz"
  | Nvtraverse -> "nvtraverse"
  | Mirror -> "mirror"
  | Mirror_nvmm -> "mirror-nvmm"
  | Soft -> "soft"
  | Link_free -> "link-free"
  | Cmap -> "cmap"

(** Build the set implementation for one (structure, algorithm) pair over a
    fresh region.  [None] when the combination does not exist (SOFT and
    Link-Free are set-only designs evaluated as list and hash; Cmap is a
    hash map). *)
let make_set ~(region : Mirror_nvm.Region.t) (ds : Sets.ds) (a : algo) :
    Sets.pack option =
  let module C = struct
    let region = region
    let track = false
  end in
  let prim name = Mirror_prim.Prim.by_name region name in
  match a with
  | Orig_dram -> Some (Sets.make ds (prim "orig-dram"))
  | Orig_nvmm -> Some (Sets.make ds (prim "orig-nvmm"))
  | Izraelevitz -> Some (Sets.make ds (prim "izraelevitz"))
  | Nvtraverse -> Some (Sets.make ds (prim "nvtraverse"))
  | Mirror -> Some (Sets.make ds (prim "mirror"))
  | Mirror_nvmm -> Some (Sets.make ds (prim "mirror-nvmm"))
  | Soft -> (
      match ds with
      | Sets.List_ds -> Some (module Mirror_handmade.Soft.List_set (C))
      | Sets.Hash_ds -> Some (module Mirror_handmade.Soft.Hash_set (C))
      | _ -> None)
  | Link_free -> (
      match ds with
      | Sets.List_ds -> Some (module Mirror_handmade.Link_free.List_set (C))
      | Sets.Hash_ds -> Some (module Mirror_handmade.Link_free.Hash_set (C))
      | _ -> None)
  | Cmap -> (
      match ds with
      | Sets.Hash_ds -> Some (module Mirror_handmade.Cmap.Hash_set (C))
      | _ -> None)

type axis = Threads | Size | Updates

type panel = {
  id : string;
  descr : string;
  ds : Sets.ds;
  axis : axis;
  threads : int;  (** fixed thread count when axis <> Threads *)
  range : int;  (** fixed key range when axis <> Size *)
  updates : int;  (** fixed update %% when axis <> Updates *)
  algos : algo list;
}

type config = {
  seconds : float;
  threads_axis : int list;
  list_sizes : int list;  (** key ranges for the list size axis *)
  big_sizes : int list;  (** key ranges for hash/BST/skiplist size axes *)
  updates_axis : int list;
  list_range : int;
  big_range : int;
  huge_range : int;  (** the 32M-node panel 6o, scaled *)
  llc_bytes : int;
      (** modeled last-level cache for the two-regime read-cost model,
          scaled with the structure sizes (the paper's machine has 25 MB) *)
}

let quick =
  {
    seconds = 0.2;
    threads_axis = [ 1; 2; 4; 8; 16 ];
    list_sizes = [ 256; 1024; 4096 ];
    big_sizes = [ 4096; 32768; 131072 ];
    updates_axis = [ 0; 20; 50; 100 ];
    list_range = 256;
    big_range = 65536;
    huge_range = 262144;
    llc_bytes = 1 lsl 20;
  }

let full =
  {
    seconds = 1.0;
    threads_axis = [ 1; 2; 4; 8; 16 ];
    list_sizes = [ 256; 512; 1024; 4096; 16384 ];
    big_sizes = [ 4096; 16384; 65536; 262144; 1048576 ];
    updates_axis = [ 0; 10; 20; 50; 80; 100 ];
    list_range = 256;
    big_range = 262144;
    huge_range = 1048576;
    llc_bytes = 4 lsl 20;
  }

let general = [ Orig_dram; Orig_nvmm; Izraelevitz; Nvtraverse; Mirror ]
let set_algos = general @ [ Soft; Link_free ]

(** Figure 6: Mirror's volatile replica on DRAM. *)
let figure6 cfg =
  let p id descr ds axis ?(threads = 8) ?(range = cfg.big_range)
      ?(updates = 20) algos =
    { id; descr; ds; axis; threads; range; updates; algos }
  in
  [
    p "6a" "Linked-List, threads, 128 nodes, 80% lookups" Sets.List_ds Threads
      ~range:cfg.list_range set_algos;
    p "6b" "Linked-List, sizes, 8 threads, 80% lookups" Sets.List_ds Size
      ~range:cfg.list_range set_algos;
    p "6c" "Linked-List, update %, 8 threads, 128 nodes" Sets.List_ds Updates
      ~range:cfg.list_range set_algos;
    p "6d" "Hash-Table, threads, 80% lookups" Sets.Hash_ds Threads set_algos;
    p "6e" "Hash-Table, sizes, 8 threads, 80% lookups" Sets.Hash_ds Size
      set_algos;
    p "6f" "Hash-Table, update %, 8 threads" Sets.Hash_ds Updates set_algos;
    p "6g" "BST, threads, 80% lookups" Sets.Bst_ds Threads general;
    p "6h" "BST, sizes, 8 threads, 80% lookups" Sets.Bst_ds Size general;
    p "6i" "BST, update %, 8 threads" Sets.Bst_ds Updates general;
    p "6j" "Skip-List, threads, 80% lookups" Sets.Skiplist_ds Threads general;
    p "6k" "Skip-List, sizes, 8 threads, 80% lookups" Sets.Skiplist_ds Size
      general;
    p "6l" "Skip-List, update %, 8 threads" Sets.Skiplist_ds Updates general;
    p "6m" "Hash-Table vs Cmap, threads, 80% lookups / 20% writes"
      Sets.Hash_ds Threads [ Mirror; Cmap ];
    p "6n" "Hash-Table vs Cmap, update %, 8 threads" Sets.Hash_ds Updates
      [ Mirror; Cmap ];
    p "6o" "Hash-Table (32M-scale), update %, 8 threads" Sets.Hash_ds Updates
      ~range:cfg.huge_range
      [ Mirror; Nvtraverse; Soft; Link_free ];
  ]

(** Figure 7: both Mirror replicas on NVMM — same panels a–l with the
    Mirror-NVMM placement. *)
let figure7 cfg =
  figure6 cfg
  |> List.filter (fun p -> p.id <= "6l")
  |> List.map (fun p ->
         {
           p with
           id = "7" ^ String.sub p.id 1 (String.length p.id - 1);
           descr = p.descr ^ " [both replicas on NVMM]";
           algos =
             List.map (fun a -> if a = Mirror then Mirror_nvmm else a) p.algos;
         })

let all_panels cfg = figure6 cfg @ figure7 cfg

let num d v = Row.Num (d, v)

(* a count per completed operation, at the panels' 4-decimal precision *)
let per_op fops n = num 4 (float_of_int n /. fops)

(** Run one panel; returns a row per (x-value, algorithm).  The columns
    are the schema-v2 CSV of EXPERIMENTS.md tooling: the trailing
    epoch-clock columns joined with the buffered discipline and are 0 for
    every strict algorithm. *)
let run_panel ?(progress = fun (_ : string) -> ()) (cfg : config) (panel : panel)
    : Row.t list =
  let xs =
    match panel.axis with
    | Threads -> cfg.threads_axis
    | Size -> (
        match panel.ds with
        | Sets.List_ds -> cfg.list_sizes
        | _ -> cfg.big_sizes)
    | Updates -> cfg.updates_axis
  in
  List.concat_map
    (fun x ->
      let threads = match panel.axis with Threads -> x | _ -> panel.threads in
      let range = match panel.axis with Size -> x | _ -> panel.range in
      let updates =
        match panel.axis with Updates -> x | _ -> panel.updates
      in
      let mix = Mirror_workload.Workload.of_updates updates in
      List.filter_map
        (fun algo ->
          (* Elision is Mirror's optimization layer: the baselines keep the
             exact charged costs of the paper's transformations. *)
          let elide = match algo with Mirror | Mirror_nvmm -> true | _ -> false in
          let region = Mirror_nvm.Region.create ~track_slots:false ~elide () in
          match make_set ~region panel.ds algo with
          | None -> None
          | Some (module S) ->
              progress
                (Printf.sprintf "panel %s x=%d algo=%s" panel.id x
                   (algo_name algo));
              let p =
                Runner.run ~seconds:cfg.seconds ~llc_bytes:cfg.llc_bytes
                  ~threads ~range ~mix
                  (module S)
              in
              let o = p.Runner.per_op in
              Some
                {
                  Row.panel = "figure";
                  keys =
                    [
                      ("panel", Row.Str panel.id);
                      ("ds", Row.Str (Sets.ds_name panel.ds));
                      ("algo", Row.Str p.Runner.algo);
                      ("x", Row.Int x);
                      ("threads", Row.Int p.Runner.threads);
                    ];
                  metrics =
                    [
                      ("mops", num 4 p.Runner.mops);
                      ("modeled_mops", num 3 p.Runner.modeled_mops);
                      ("nvm_reads_per_op", num 2 o.Runner.nvm_reads);
                      ("nvm_writes_per_op", num 3 o.Runner.nvm_writes);
                      ("flushes_per_op", num 3 o.Runner.flushes);
                      ("fences_per_op", num 3 o.Runner.fences);
                      ("flushes_elided_per_op", num 3 o.Runner.flushes_elided);
                      ("fences_elided_per_op", num 3 o.Runner.fences_elided);
                      ("epoch_advances_per_op", num 4 o.Runner.epoch_advances);
                      ("fences_batched_per_op", num 4 o.Runner.fences_batched);
                      ( "writes_deferred_per_op",
                        num 3 o.Runner.writes_deferred );
                    ];
                })
        panel.algos)
    xs

(* -- elision panel: flush/fence elision on vs off ------------------------- *)

(** The eight Mirror-transformed structures of the elision panel: the four
    set structures of the paper's evaluation plus the queue, stack and
    priority queue of the generality claim, and the bare primitive as a
    contended counter (the cost-model floor: one flush + one fence per
    update). *)
let elision_structures =
  [ "list"; "hash"; "bst"; "skiplist"; "queue"; "stack"; "pqueue"; "counter" ]

(* The contended schedsim drivers shared by the elision and scaling
   panels: the same workload shapes (70%-update small-range sets, mixed
   queue/stack/pqueue traffic, a bare fetch-add counter), parameterised
   by fiber count.  Returns the fiber thunks for one run. *)
let contended_tasks ds ~threads ~ops_per_task region seed =
  let module W = Mirror_workload.Workload in
  let module Rng = Mirror_workload.Rng in
  let set_driver ds =
    let (module S : Sets.SET) =
      Sets.make ds (Mirror_prim.Prim.by_name region "mirror")
    in
    let range = 8 in
    let t = S.create ~capacity:range () in
    List.iter (fun k -> ignore (S.insert t k k)) (W.prefill_keys ~range);
    List.init threads (fun i () ->
        let rng = Rng.split ~seed i in
        for _ = 1 to ops_per_task do
          match W.gen rng (W.of_updates 70) ~range with
          | W.Lookup k -> ignore (S.contains t k)
          | W.Insert (k, v) -> ignore (S.insert t k v)
          | W.Remove k -> ignore (S.remove t k)
        done)
  in
  let queue_driver () =
    let (module P : Mirror_prim.Prim.S) =
      Mirror_prim.Prim.by_name region "mirror"
    in
    let module Q = Mirror_dstruct.Queue.Make (P) in
    let q = Q.create () in
    List.init threads (fun i () ->
        for j = 1 to ops_per_task do
          if j land 1 = 0 then Q.enqueue q ((i * 1000) + j)
          else ignore (Q.dequeue q)
        done)
  in
  let stack_driver () =
    let (module P : Mirror_prim.Prim.S) =
      Mirror_prim.Prim.by_name region "mirror"
    in
    let module St = Mirror_dstruct.Stack.Make (P) in
    let s = St.create () in
    List.init threads (fun i () ->
        for j = 1 to ops_per_task do
          if (i + j) land 1 = 0 then St.push s ((i * 1000) + j)
          else ignore (St.pop s)
        done)
  in
  let pqueue_driver () =
    let (module P : Mirror_prim.Prim.S) =
      Mirror_prim.Prim.by_name region "mirror"
    in
    let module Pq = Mirror_dstruct.Priority_queue.Make (P) in
    let pq = Pq.create () in
    List.init threads (fun i () ->
        let rng = Rng.split ~seed i in
        for _ = 1 to ops_per_task do
          if Rng.int rng 2 = 0 then ignore (Pq.insert pq (Rng.int rng 16) 0)
          else ignore (Pq.delete_min pq)
        done)
  in
  let counter_driver () =
    let v = Mirror_core.Patomic.make region 0 in
    List.init threads (fun _ () ->
        for _ = 1 to ops_per_task do
          ignore (Mirror_core.Patomic.fetch_add v 1)
        done)
  in
  match ds with
  | "list" -> set_driver Sets.List_ds
  | "hash" -> set_driver Sets.Hash_ds
  | "bst" -> set_driver Sets.Bst_ds
  | "skiplist" -> set_driver Sets.Skiplist_ds
  | "queue" -> queue_driver ()
  | "stack" -> stack_driver ()
  | "pqueue" -> pqueue_driver ()
  | "counter" -> counter_driver ()
  | s -> invalid_arg ("contended_tasks: unknown structure " ^ s)

(** One measurement of the elision panel: a Mirror data structure driven by
    contended logical threads under the deterministic scheduler, with the
    region's flush/fence elision either off (the seed's exact charged costs)
    or on.  The scheduler is what actually interleaves operations on this
    one-core box, so this is where the helping/retry paths that elision
    targets really fire; the per-op charged counts are exact, deterministic
    and directly comparable between the two modes (elision changes no
    control flow, it only reclassifies redundant persisting instructions as
    elided). *)
let run_elision_panel ?(threads = 4) ?(ops_per_task = 40) ?(seeds = 8) () :
    Row.t list =
  let run_one name elide =
    let acc = Mirror_nvm.Stats.zero () in
    let ops = ref 0 in
    for seed = 1 to seeds do
      let region = Mirror_nvm.Region.create ~track_slots:false ~elide () in
      let tasks = contended_tasks name ~threads ~ops_per_task region seed in
      Mirror_nvm.Stats.reset_all ();
      let o = Mirror_schedsim.Sched.run ~seed tasks in
      if not o.Mirror_schedsim.Sched.completed then
        failwith "run_elision_panel: schedsim run did not complete";
      Mirror_nvm.Stats.add ~into:acc (Mirror_nvm.Stats.total ());
      ops := !ops + (threads * ops_per_task)
    done;
    let per = per_op (float_of_int (max 1 !ops)) in
    {
      Row.panel = "elision";
      keys = [ ("ds", Row.Str name); ("elide", Row.Bool elide) ];
      metrics =
        [
          ("ops", Row.Int !ops);
          ("flushes_per_op", per acc.Mirror_nvm.Stats.flush);
          ("fences_per_op", per acc.Mirror_nvm.Stats.fence);
          ("flushes_elided_per_op", per acc.Mirror_nvm.Stats.flush_elided);
          ("fences_elided_per_op", per acc.Mirror_nvm.Stats.fence_elided);
          ("helps_per_op", per acc.Mirror_nvm.Stats.help);
        ];
    }
  in
  List.concat_map
    (fun name -> [ run_one name false; run_one name true ])
    elision_structures

(* -- buffered panel: epoch-batched persistence vs strict Mirror ------------ *)

(** The four structures of the buffered panel: the two paper set
    structures where fence cost dominates plus the queue and stack of the
    generality claim. *)
let buffered_structures = [ "list"; "hash"; "queue"; "stack" ]

(** The headline measurement of the buffered discipline: the same
    contended schedsim workload run under strict Mirror and under the
    buffered discipline at several epoch lengths, with exact deterministic
    charged counts.  [strict_fences_per_op] is the strict baseline of the
    same (structure, threads) cell, so each row carries its own
    fence-reduction ratio; the open epoch is drained
    ({!Mirror_nvm.Region.quiesce}) before counters are read, so the
    deferred tail's batch fence is charged to the run that produced it. *)
let run_buffered_panel ?(threads_points = [ 1; 2; 4; 8; 16 ])
    ?(epoch_lens = [ 1; 16; 256 ]) ?(ops_per_task = 40) ?(seeds = 4) () :
    Row.t list =
  let module W = Mirror_workload.Workload in
  let module Rng = Mirror_workload.Rng in
  let set_driver ds ~prim ~threads region seed =
    let (module S : Sets.SET) =
      Sets.make ds (Mirror_prim.Prim.by_name region prim)
    in
    let range = 8 in
    let t = S.create ~capacity:range () in
    List.iter (fun k -> ignore (S.insert t k k)) (W.prefill_keys ~range);
    List.init threads (fun i () ->
        let rng = Rng.split ~seed i in
        for _ = 1 to ops_per_task do
          match W.gen rng (W.of_updates 70) ~range with
          | W.Lookup k -> ignore (S.contains t k)
          | W.Insert (k, v) -> ignore (S.insert t k v)
          | W.Remove k -> ignore (S.remove t k)
        done)
  in
  let queue_driver ~prim ~threads region seed =
    let (module P : Mirror_prim.Prim.S) =
      Mirror_prim.Prim.by_name region prim
    in
    let module Q = Mirror_dstruct.Queue.Make (P) in
    let q = Q.create () in
    ignore seed;
    List.init threads (fun i () ->
        for j = 1 to ops_per_task do
          if j land 1 = 0 then Q.enqueue q ((i * 1000) + j)
          else ignore (Q.dequeue q)
        done)
  in
  let stack_driver ~prim ~threads region seed =
    let (module P : Mirror_prim.Prim.S) =
      Mirror_prim.Prim.by_name region prim
    in
    let module St = Mirror_dstruct.Stack.Make (P) in
    let s = St.create () in
    ignore seed;
    List.init threads (fun i () ->
        for j = 1 to ops_per_task do
          if (i + j) land 1 = 0 then St.push s ((i * 1000) + j)
          else ignore (St.pop s)
        done)
  in
  let driver_of = function
    | "list" -> set_driver Sets.List_ds
    | "hash" -> set_driver Sets.Hash_ds
    | "queue" -> queue_driver
    | "stack" -> stack_driver
    | s -> invalid_arg ("run_buffered_panel: unknown structure " ^ s)
  in
  let measure name ~prim ~threads ~epoch_len =
    let driver = driver_of name in
    let acc = Mirror_nvm.Stats.zero () in
    let ops = ref 0 in
    for seed = 1 to seeds do
      let region =
        Mirror_nvm.Region.create ~track_slots:false ~epoch_len ()
      in
      let tasks = driver ~prim ~threads region seed in
      Mirror_nvm.Stats.reset_all ();
      let o = Mirror_schedsim.Sched.run ~seed tasks in
      if not o.Mirror_schedsim.Sched.completed then
        failwith "run_buffered_panel: schedsim run did not complete";
      Mirror_nvm.Region.quiesce region;
      Mirror_nvm.Stats.add ~into:acc (Mirror_nvm.Stats.total ());
      ops := !ops + (threads * ops_per_task)
    done;
    (max 1 !ops, acc)
  in
  List.concat_map
    (fun name ->
      List.concat_map
        (fun threads ->
          let sops, strict = measure name ~prim:"mirror" ~threads ~epoch_len:1 in
          let strict_fences =
            float_of_int strict.Mirror_nvm.Stats.fence /. float_of_int sops
          in
          List.map
            (fun epoch_len ->
              let bops, buf =
                measure name ~prim:"buffered" ~threads ~epoch_len
              in
              let fops = float_of_int bops in
              let per = per_op fops in
              let fences =
                float_of_int buf.Mirror_nvm.Stats.fence /. fops
              in
              {
                Row.panel = "buffered";
                keys =
                  [
                    ("ds", Row.Str name);
                    ("threads", Row.Int threads);
                    ("epoch_len", Row.Int epoch_len);
                  ];
                metrics =
                  [
                    ("ops", Row.Int bops);
                    ("strict_fences_per_op", num 4 strict_fences);
                    ("fences_per_op", num 4 fences);
                    ( "fence_reduction",
                      num 2
                        (if fences > 0. then strict_fences /. fences
                         else Float.infinity) );
                    ("flushes_per_op", per buf.Mirror_nvm.Stats.flush);
                    ( "epoch_advances_per_op",
                      per buf.Mirror_nvm.Stats.epoch_advance );
                    ( "fences_batched_per_op",
                      per buf.Mirror_nvm.Stats.fence_batched );
                    ( "writes_deferred_per_op",
                      per buf.Mirror_nvm.Stats.writes_deferred );
                  ];
              })
            epoch_lens)
        threads_points)
    buffered_structures

(* -- recovery panel ---------------------------------------------------------------- *)

(** Recovery latency vs live-object count x worker count over the raw
    persistent heap ({!Mirror_nvmheap.Heap}).  Two metrics per cell:

    - [wall_ms]: measured wall clock of {!Mirror_nvmheap.Heap.recover}
      with real [Domain.spawn] workers — honest, but on a one-core box
      parallel wall time cannot beat sequential;
    - [model_ms]: the modeled latency on a machine with one core per
      worker.  The same worker closures run under the deterministic
      scheduler (so the work split is reproducible anywhere), and each
      worker's node/header tallies are priced at the configured NVMM read
      latency; the phase cost is the {e maximum} worker's cost — the
      critical path.  [speedup] divides the [domains=1] model by this
      row's; the speedup budget in bench/budgets.csv gates it. *)
let model_ms_of (r : Mirror_nvmheap.Heap.recovery_stats) =
  let cfg = Mirror_nvm.Latency.get_config () in
  let critical arr = Array.fold_left max 0 arr in
  (* mark: one NVMM pointer-word read per traced node; sweep: one header
     read per parsed block *)
  float_of_int
    (cfg.Mirror_nvm.Latency.nvm_read_ns
    * (critical r.Mirror_nvmheap.Heap.r_worker_marked
      + critical r.Mirror_nvmheap.Heap.r_worker_parsed))
  /. 1e6

let run_recovery_panel ?(shapes = [ Mirror_nvmheap.Shapes.Forest ])
    ?(live_points = [ 10_000; 100_000 ]) ?(domain_points = [ 1; 2; 4 ]) () :
    Row.t list =
  let module H = Mirror_nvmheap.Heap in
  let module Sh = Mirror_nvmheap.Shapes in
  List.concat_map
    (fun shape ->
      List.concat_map
        (fun live ->
          let garbage_ratio = 0.5 in
          let region = Mirror_nvm.Region.create ~track_slots:false () in
          let heap =
            H.create ~words:(Sh.words_needed ~live ~garbage_ratio) region
          in
          let built =
            Sh.build ~shape ~garbage_ratio ~durable:false ~seed:42 ~live heap
          in
          let cells =
            List.map
              (fun domains ->
                (* wall clock with real domains *)
                let t0 = Unix.gettimeofday () in
                H.recover ~domains heap ~trace:built.Sh.trace;
                let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
                let wall_stats = Option.get (H.last_recovery heap) in
                (* deterministic work split under the cooperative scheduler *)
                let runner tasks =
                  ignore (Mirror_schedsim.Sched.run ~seed:1 tasks)
                in
                H.recover ~domains ~runner heap ~trace:built.Sh.trace;
                let sim_stats = Option.get (H.last_recovery heap) in
                (domains, wall_ms, wall_stats, sim_stats))
              domain_points
          in
          let base =
            match List.find_opt (fun (d, _, _, _) -> d = 1) cells with
            | Some (_, _, _, sim) -> model_ms_of sim
            | None -> invalid_arg "run_recovery_panel: domain_points lacks 1"
          in
          List.map
            (fun (domains, wall_ms, wall_stats, sim_stats) ->
              let model_ms = model_ms_of sim_stats in
              {
                Row.panel = "recovery";
                keys =
                  [
                    ("shape", Row.Str (Sh.shape_name shape));
                    ("live", Row.Int live);
                    ("garbage", Row.Int (List.length built.Sh.garbage));
                    ("domains", Row.Int domains);
                  ];
                metrics =
                  [
                    ("wall_ms", num 3 wall_ms);
                    ("model_ms", num 3 model_ms);
                    ("marked", Row.Int wall_stats.H.r_marked);
                    ("swept", Row.Int wall_stats.H.r_swept);
                    ("steals", Row.Int sim_stats.H.r_steals);
                    ( "speedup",
                      num 2
                        (if model_ms > 0. then base /. model_ms
                         else Float.infinity) );
                  ];
              })
            cells)
        live_points)
    shapes

(* -- alloc panel -------------------------------------------------------------------- *)

let alloc_policy_name = function
  | Mirror_nvmheap.Heap.Sharded -> "sharded"
  | Mirror_nvmheap.Heap.Global_lock -> "lock"

(** Allocator throughput: the sharded arenas against the old global-lock
    allocator on an alloc/free-heavy workload (no data-structure traffic),
    driven by contended logical threads under the deterministic scheduler.
    Each fiber allocates into its own pool and frees from its neighbour's,
    so the sharded remote-free path genuinely fires.

    [modeled_mops] is modeled, not wall clock: the charged NVMM events of
    the run (header writes, flushes, fences — exact and deterministic) are
    priced at the configured latencies and split Amdahl-style.  Under
    {!Mirror_nvmheap.Heap.Global_lock} every persist happens while holding
    the one allocator lock, so the whole priced cost is serial; under
    {!Mirror_nvmheap.Heap.Sharded} no persist happens under any shared
    lock, so it divides across threads.  Volatile bookkeeping is priced at
    [base_op_ns] per operation and always divides.  [speedup] is the ratio
    over the lock row of the same thread count; the speedup budget in
    bench/budgets.csv gates it on the sharded rows. *)
let run_alloc_panel ?(threads_points = [ 1; 2; 4; 8; 16 ])
    ?(ops_per_task = 400) ?(seeds = 4) ?(base_op_ns = 20) () : Row.t list =
  let module H = Mirror_nvmheap.Heap in
  let module Rng = Mirror_workload.Rng in
  let run_one policy threads =
    let acc = Mirror_nvm.Stats.zero () in
    let ops = ref 0 and persist_ns = ref 0. and wall = ref 0. in
    for seed = 1 to seeds do
      let region = Mirror_nvm.Region.create ~track_slots:false () in
      let heap =
        H.create ~words:((threads * ops_per_task * 12) + 1024) ~policy region
      in
      (* per-fiber pools of live payloads; fiber i frees from fiber i+1's
         pool, so under Sharded every free is a cross-arena remote free *)
      let pools = Array.init threads (fun _ -> ref []) in
      let tasks =
        List.init threads (fun i () ->
            let rng = Rng.split ~seed i in
            let mine = pools.(i) and theirs = pools.((i + 1) mod threads) in
            for _ = 1 to ops_per_task do
              match !theirs with
              | p :: rest when Rng.int rng 10 < 4 ->
                  theirs := rest;
                  H.free heap p
              | _ ->
                  (* bind before the push: alloc yields, and the neighbour
                     pops from [mine] concurrently *)
                  let p = H.alloc heap (1 + Rng.int rng 8) in
                  mine := p :: !mine
            done)
      in
      Mirror_nvm.Stats.reset_all ();
      let t0 = Unix.gettimeofday () in
      let o = Mirror_schedsim.Sched.run ~seed tasks in
      wall := !wall +. ((Unix.gettimeofday () -. t0) *. 1e3);
      if not o.Mirror_schedsim.Sched.completed then
        failwith "run_alloc_panel: schedsim run did not complete";
      let st = Mirror_nvm.Stats.total () in
      Mirror_nvm.Stats.add ~into:acc st;
      ops := !ops + (threads * ops_per_task);
      let cfg = Mirror_nvm.Latency.get_config () in
      persist_ns :=
        !persist_ns
        +. float_of_int
             ((st.Mirror_nvm.Stats.flush * cfg.Mirror_nvm.Latency.flush_ns)
             + (st.Mirror_nvm.Stats.fence * cfg.Mirror_nvm.Latency.fence_ns)
             + (st.Mirror_nvm.Stats.nvm_write + st.Mirror_nvm.Stats.nvm_cas)
               * cfg.Mirror_nvm.Latency.nvm_write_ns
             + (st.Mirror_nvm.Stats.nvm_read * cfg.Mirror_nvm.Latency.nvm_read_ns)
             )
    done;
    let fops = float_of_int (max 1 !ops) in
    let serial, parallel =
      match policy with
      | H.Global_lock -> (!persist_ns, 0.)
      | H.Sharded -> (0., !persist_ns)
    in
    let elapsed_ns =
      serial
      +. ((parallel +. (float_of_int base_op_ns *. fops))
         /. float_of_int threads)
    in
    let mops = fops /. elapsed_ns *. 1e3 in
    let per = per_op fops in
    ( mops,
      fun ~lock_mops ->
        {
          Row.panel = "alloc";
          keys =
            [
              ("policy", Row.Str (alloc_policy_name policy));
              ("threads", Row.Int threads);
            ];
          metrics =
            [
              ("ops", Row.Int !ops);
              ("modeled_mops", num 3 mops);
              ("wall_ms", num 3 !wall);
              ("carves", Row.Int acc.Mirror_nvm.Stats.alloc_carve);
              ("remote_frees", Row.Int acc.Mirror_nvm.Stats.alloc_remote_free);
              ("drains", Row.Int acc.Mirror_nvm.Stats.alloc_remote_drain);
              ("flushes_per_op", per acc.Mirror_nvm.Stats.flush);
              ("fences_per_op", per acc.Mirror_nvm.Stats.fence);
              ("speedup", num 2 (mops /. lock_mops));
            ];
        } )
  in
  List.concat_map
    (fun threads ->
      let lock_mops, lock = run_one H.Global_lock threads in
      let _, sharded = run_one H.Sharded threads in
      [ lock ~lock_mops; sharded ~lock_mops ])
    threads_points

(* -- line panel: cache-line coalescing of flushes --------------------------- *)

(** The slots-per-line sweep of the line panel; also the exact vocabulary
    the [--slots-per-line] flags of bench/main.exe and bin/mcheck.exe
    accept (both exit 2 listing it on anything else). *)
let line_slots = [ 1; 4; 8 ]

(** The three multi-field structures of the line panel: the linked list
    (one fresh field per insert, chained to the predecessor's line), the
    external BST (two fresh edge fields per insert) and the skip list
    (one fresh field per level). *)
let line_structures = [ "list"; "bst"; "skiplist" ]

(** The line-coalescing panel: insert-heavy Mirror workloads at several
    [slots_per_line] settings.  Insertions allocate one or more repp
    fields and then flush the destination before the linearizing CAS;
    with [slots_per_line = 1] (the seed's slot-granular model) every one
    of those write-backs is a separate charged flush, while with a wider
    line the [make_near] placements carve the fresh fields from the
    destination's line and the per-line dirty map coalesces them into a
    single charged flush ({!Mirror_nvm.Stats} [flush_coalesced] counts
    the elided ones).  The driver is insert-only over per-fiber disjoint
    key stripes, so (almost) every operation takes the allocating path
    and the flushes/op column is dominated by exactly the cost the line
    map targets.  Counts are exact and deterministic; every structure's
    slots=1 row doubles as its own baseline, so each wider row carries
    its flush-reduction ratio. *)
let run_line_panel ?(slots = line_slots) ?(threads = 2) ?(ops_per_task = 200)
    ?(seeds = 4) () : Row.t list =
  let ds_of = function
    | "list" -> Sets.List_ds
    | "bst" -> Sets.Bst_ds
    | "skiplist" -> Sets.Skiplist_ds
    | s -> invalid_arg ("run_line_panel: unknown structure " ^ s)
  in
  (* bulk load over disjoint per-fiber stripes: fiber [i] owns keys
     [i * ops_per_task ..< (i+1) * ops_per_task] and inserts them in
     ascending order, so every insert allocates AND its predecessor is
     (almost always) the fiber's previous insert — the chained-placement
     pattern [make_near] targets, where the fresh field lands on the
     still-open line of the node the CE will flush anyway.  Shuffled keys
     would scatter predecessors onto long-full lines and measure line
     fragmentation instead of the placement API; the seed still varies
     the scheduler interleaving across fibers.  The default fiber count
     is deliberately low: every fiber timeshares the one simulated core,
     so any fiber's fence drains the whole pending set and closes the
     other fibers' coalescing windows mid-insert — an artifact of the
     shared persist path that per-core hardware would not have, and one
     that scales with the fiber count, not with the placement quality
     this panel gates. *)
  let driver ds region _seed =
    let (module S : Sets.SET) =
      Sets.make ds (Mirror_prim.Prim.by_name region "mirror")
    in
    let range = threads * ops_per_task in
    let t = S.create ~capacity:range () in
    List.init threads (fun i () ->
        for j = 0 to ops_per_task - 1 do
          let k = (i * ops_per_task) + j in
          ignore (S.insert t k k)
        done)
  in
  let measure name slots_per_line =
    let ds = ds_of name in
    let acc = Mirror_nvm.Stats.zero () in
    let ops = ref 0 in
    for seed = 1 to seeds do
      let region =
        Mirror_nvm.Region.create ~track_slots:false ~slots_per_line ()
      in
      let tasks = driver ds region seed in
      Mirror_nvm.Stats.reset_all ();
      let o = Mirror_schedsim.Sched.run ~seed tasks in
      if not o.Mirror_schedsim.Sched.completed then
        failwith "run_line_panel: schedsim run did not complete";
      Mirror_nvm.Stats.add ~into:acc (Mirror_nvm.Stats.total ());
      ops := !ops + (threads * ops_per_task)
    done;
    (max 1 !ops, acc)
  in
  List.concat_map
    (fun name ->
      let bops, base = measure name 1 in
      let baseline =
        float_of_int base.Mirror_nvm.Stats.flush /. float_of_int bops
      in
      List.map
        (fun slots ->
          let ops, st = if slots = 1 then (bops, base) else measure name slots in
          let fops = float_of_int ops in
          let per = per_op fops in
          let flushes = float_of_int st.Mirror_nvm.Stats.flush /. fops in
          {
            Row.panel = "line";
            keys = [ ("ds", Row.Str name); ("slots_per_line", Row.Int slots) ];
            metrics =
              [
                ("ops", Row.Int ops);
                ("flushes_per_op", num 4 flushes);
                ("coalesced_per_op", per st.Mirror_nvm.Stats.flush_coalesced);
                ("fences_per_op", per st.Mirror_nvm.Stats.fence);
                ("baseline_flushes_per_op", num 4 baseline);
                ( "flush_reduction",
                  num 2
                    (if flushes > 0. then baseline /. flushes
                     else Float.infinity) );
              ];
          })
        slots)
    line_structures

(* -- scaling panel: modeled speedup at 1..16 logical threads ---------------- *)

(** The scaling panel's structures: the two set shapes of the paper's
    figures plus the queue and the bare counter — the two extremes of
    the contention spectrum (disjoint-ish traffic vs a single hot
    word). *)
let scaling_structures = [ "list"; "hash"; "queue"; "counter" ]

(** The scaling tier: the same contended drivers as the elision panel
    ({!contended_tasks}) run at every point of the extended thread axis,
    with deterministic Amdahl-priced throughput.  The structures are
    lock-free, so every charged persist cost is parallel work:
    [elapsed = (persist_ns + base_op_ns * ops) / threads], where
    [persist_ns] prices the exact flush/fence/NVMM-access counts of the
    run through the {!Mirror_nvm.Latency} config.  Contention shows up
    honestly — a hotter structure inflates its per-op charged counts
    (CAS retries, helping) and its cross-thread NUMA traffic, both of
    which eat into the modeled speedup.  [wall_ms] is the measured
    wall clock of the schedsim runs: every fiber timeshares one OS
    thread, so it reports simulation cost, not parallel speedup.

    The panel runs with the NUMA remote-line knob on
    ([numa_remote_ns], default 150 ns — roughly an Optane cross-socket
    read surcharge), restored afterwards: remote charging moves no
    control flow, so all counts stay deterministic, and the remote
    term prices the cross-thread sharing that uniform-memory modeling
    would hide. *)
let run_scaling_panel ?(structures = scaling_structures)
    ?(threads_points = [ 1; 2; 4; 8; 16 ]) ?(ops_per_task = 40) ?(seeds = 4)
    ?(base_op_ns = 40) ?(numa_remote_ns = 150) () : Row.t list =
  let saved_remote = Mirror_nvm.Latency.numa_remote_ns () in
  Mirror_nvm.Latency.set_numa_remote_ns numa_remote_ns;
  Fun.protect
    ~finally:(fun () -> Mirror_nvm.Latency.set_numa_remote_ns saved_remote)
  @@ fun () ->
  let run_one ds threads =
    let acc = Mirror_nvm.Stats.zero () in
    let ops = ref 0 and persist_ns = ref 0. and wall = ref 0. in
    for seed = 1 to seeds do
      let region = Mirror_nvm.Region.create ~track_slots:false () in
      let tasks = contended_tasks ds ~threads ~ops_per_task region seed in
      Mirror_nvm.Stats.reset_all ();
      let t0 = Unix.gettimeofday () in
      let o = Mirror_schedsim.Sched.run ~seed tasks in
      wall := !wall +. ((Unix.gettimeofday () -. t0) *. 1e3);
      if not o.Mirror_schedsim.Sched.completed then
        failwith "run_scaling_panel: schedsim run did not complete";
      let st = Mirror_nvm.Stats.total () in
      Mirror_nvm.Stats.add ~into:acc st;
      ops := !ops + (threads * ops_per_task);
      let cfg = Mirror_nvm.Latency.get_config () in
      persist_ns :=
        !persist_ns
        +. float_of_int
             ((st.Mirror_nvm.Stats.flush * cfg.Mirror_nvm.Latency.flush_ns)
             + (st.Mirror_nvm.Stats.fence * cfg.Mirror_nvm.Latency.fence_ns)
             + (st.Mirror_nvm.Stats.nvm_write + st.Mirror_nvm.Stats.nvm_cas)
               * cfg.Mirror_nvm.Latency.nvm_write_ns
             + (st.Mirror_nvm.Stats.nvm_read * cfg.Mirror_nvm.Latency.nvm_read_ns)
             + (st.Mirror_nvm.Stats.nvm_remote * numa_remote_ns))
    done;
    let fops = float_of_int (max 1 !ops) in
    (* lock-free structures: all priced work is parallel; the serial term
       of the Amdahl split is empty *)
    let elapsed_ns =
      (!persist_ns +. (float_of_int base_op_ns *. fops))
      /. float_of_int threads
    in
    let mops = fops /. elapsed_ns *. 1e3 in
    ( mops,
      fun ~base_mops ->
        {
          Row.panel = "scaling";
          keys = [ ("ds", Row.Str ds); ("threads", Row.Int threads) ];
          metrics =
            [
              ("ops", Row.Int !ops);
              ("modeled_mops", num 3 mops);
              ("speedup", num 3 (mops /. base_mops));
              ("remote_per_op", per_op fops acc.Mirror_nvm.Stats.nvm_remote);
              ("wall_ms", num 3 !wall);
            ];
        } )
  in
  List.concat_map
    (fun ds ->
      (* the 1-thread baseline is always measured (and reused when the
         axis includes it), so every row carries a well-defined speedup *)
      let base = run_one ds 1 in
      let base_mops = fst base in
      List.map
        (fun threads ->
          let _, row = if threads = 1 then base else run_one ds threads in
          row ~base_mops)
        threads_points)
    structures
