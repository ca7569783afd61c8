(** Smoke and consistency tests of the benchmark harness itself. *)

open Mirror_harness

let check = Support.check

let test_runner_smoke () =
  let region = Support.fresh_region ~track:false () in
  let (module S) =
    Mirror_dstruct.Sets.make Mirror_dstruct.Sets.List_ds
      (Support.prim region "mirror")
  in
  let p =
    Runner.run ~seconds:0.05 ~threads:2 ~range:32
      ~mix:Mirror_workload.Workload.read80
      (module S)
  in
  check (p.Runner.ops > 0) "ops executed";
  check (p.Runner.mops > 0.) "throughput positive";
  check (p.Runner.modeled_mops > 0.) "model positive";
  check (p.Runner.algo = "list/mirror") "algo name"

let test_modeled_ordering () =
  (* the cost model must reproduce the paper's headline ordering on a
     read-heavy list workload: Mirror > NVTraverse > Izraelevitz *)
  let point prim_name =
    let region = Support.fresh_region ~track:false () in
    let (module S) =
      Mirror_dstruct.Sets.make Mirror_dstruct.Sets.List_ds
        (Support.prim region prim_name)
    in
    Runner.run ~seconds:0.05 ~threads:2 ~range:128
      ~mix:Mirror_workload.Workload.read80
      (module S)
  in
  let m = point "mirror" in
  let n = point "nvtraverse" in
  let i = point "izraelevitz" in
  check
    (m.Runner.modeled_mops > n.Runner.modeled_mops)
    "mirror beats nvtraverse (model)";
  check
    (n.Runner.modeled_mops > i.Runner.modeled_mops)
    "nvtraverse beats izraelevitz (model)"

let test_make_set_combinations () =
  let region = Support.fresh_region ~track:false () in
  List.iter
    (fun ds ->
      List.iter
        (fun algo ->
          match Figures.make_set ~region ds algo with
          | Some (module S) ->
              let t = S.create ~capacity:16 () in
              check (S.insert t 1 1) "fresh set usable"
          | None -> (
              (* only set-only/hash-only designs may be missing *)
              match algo with
              | Figures.Soft | Figures.Link_free | Figures.Cmap -> ()
              | _ -> Alcotest.fail "general transformation missing"))
        [
          Figures.Orig_dram;
          Figures.Orig_nvmm;
          Figures.Izraelevitz;
          Figures.Nvtraverse;
          Figures.Mirror;
          Figures.Mirror_nvmm;
          Figures.Soft;
          Figures.Link_free;
          Figures.Cmap;
        ])
    Support.all_ds

let test_panel_inventory () =
  let cfg = Figures.quick in
  let panels = Figures.all_panels cfg in
  check (List.length panels = 15 + 12) "15 figure-6 + 12 figure-7 panels";
  List.iter
    (fun p ->
      check (p.Figures.algos <> []) "panel has algorithms";
      check (String.length p.Figures.id >= 2) "panel id")
    panels;
  (* figure 7 panels must use the NVMM placement of Mirror *)
  List.iter
    (fun p ->
      if String.get p.Figures.id 0 = '7' then begin
        check
          (not (List.mem Figures.Mirror p.Figures.algos))
          "no DRAM-placed mirror in figure 7";
        check
          (List.mem Figures.Mirror_nvmm p.Figures.algos)
          "mirror-nvmm present in figure 7"
      end)
    panels

let test_run_tiny_panel () =
  let cfg =
    {
      Figures.quick with
      Figures.seconds = 0.03;
      threads_axis = [ 1; 2 ];
      list_range = 32;
    }
  in
  let panel = List.hd (Figures.figure6 cfg) in
  let rows = Figures.run_panel cfg panel in
  check (List.length rows = 2 * List.length panel.Figures.algos)
    "one row per (x, algo)";
  (* measured mops is ops / elapsed, so it is positive iff the row has ops *)
  List.iter
    (fun r -> check (Row.num r "mops" > 0.) "row has ops")
    rows

(* -- the budget checker ------------------------------------------------------ *)

let row panel keys metrics =
  {
    Row.panel;
    keys;
    metrics = List.map (fun (k, v) -> (k, Row.Num (4, v))) metrics;
  }

let parse_one text =
  match Budget.parse ~file:"budgets.csv" text with
  | Ok [ l ] -> l
  | Ok _ -> Alcotest.fail "expected one budget line"
  | Error msg -> Alcotest.fail msg

let verdict rows text = snd (List.hd (Budget.check rows [ parse_one text ]))

(* [rows v] builds a panel whose gated cell holds [v]: the line must pass
   with [v] at its bound and fail one float past it. *)
let at_the_bound text rows =
  let l = parse_one text in
  let past =
    match l.Budget.op with
    | Budget.Max -> Float.succ l.Budget.bound
    | Budget.Min -> Float.pred l.Budget.bound
  in
  let ok v =
    match verdict (rows v) text with
    | Budget.Measured { ok; _ } -> ok
    | _ -> Alcotest.failf "%s: not measured" text
  in
  check (ok l.Budget.bound) (text ^ ": passes at the bound");
  check (not (ok past)) (text ^ ": fails just past it")

(* strict ds/algo ceilings: every figure row of the algorithm counts, and
   the worst one is gated; other algorithms' rows are not matched *)
let test_budget_strict () =
  let fig algo x fl fe =
    row "figure"
      [ ("panel", Row.Str "6c"); ("algo", Row.Str algo); ("x", Row.Int x) ]
      [ ("flushes_per_op", fl); ("fences_per_op", fe) ]
  in
  let rows fl fe =
    [
      fig "list/mirror" 0 0.1 0.1;
      fig "list/mirror" 50 fl fe;
      fig "list/izraelevitz" 50 63. 63.;
    ]
  in
  at_the_bound "figure,algo=list/mirror,flushes_per_op,max,0.65" (fun v ->
      rows v 0.1);
  at_the_bound "figure,algo=list/mirror,fences_per_op,max,0.50" (fun v ->
      rows 0.1 v)

(* the buffered row's two bounds are two independent lines *)
let test_budget_buffered () =
  let buf epoch fe red =
    row "buffered"
      [
        ("ds", Row.Str "list"); ("threads", Row.Int 4); ("epoch_len", Row.Int epoch);
      ]
      [ ("fences_per_op", fe); ("fence_reduction", red) ]
  in
  let rows fe red = [ buf 16 0.5 1.0; buf 256 fe red ] in
  let sel = "buffered,ds=list;threads=4;epoch_len=256," in
  at_the_bound (sel ^ "fences_per_op,max,0.05") (fun v -> rows v 56.);
  at_the_bound (sel ^ "fence_reduction,min,5") (fun v -> rows 0.0063 v);
  match
    Budget.check (rows 0.06 56.)
      [ parse_one (sel ^ "fences_per_op,max,0.05");
        parse_one (sel ^ "fence_reduction,min,5") ]
  with
  | [ (_, Budget.Measured { ok = false; _ }); (_, Budget.Measured { ok = true; _ }) ]
    -> ()
  | _ -> Alcotest.fail "a breached fence ceiling must not fail the reduction line"

let test_budget_floors () =
  at_the_bound "line,ds=list;slots_per_line=8,flush_reduction,min,1.5" (fun v ->
      [
        row "line" [ ("ds", Row.Str "list"); ("slots_per_line", Row.Int 1) ]
          [ ("flush_reduction", 1.) ];
        row "line" [ ("ds", Row.Str "list"); ("slots_per_line", Row.Int 8) ]
          [ ("flush_reduction", v) ];
      ]);
  at_the_bound "scaling,ds=list;threads=8,speedup,min,4.0" (fun v ->
      List.map
        (fun (th, sp) ->
          row "scaling" [ ("ds", Row.Str "list"); ("threads", Row.Int th) ]
            [ ("speedup", sp) ])
        [ (1, 1.); (8, v); (16, 1.5 *. v) ])

(* the sharded/lock ratio is the sharded row's derived speedup column *)
let test_budget_alloc () =
  at_the_bound "alloc,policy=sharded;threads=2,speedup,min,1.5" (fun v ->
      [
        row "alloc" [ ("policy", Row.Str "lock"); ("threads", Row.Int 2) ]
          [ ("speedup", 1.) ];
        row "alloc" [ ("policy", Row.Str "sharded"); ("threads", Row.Int 2) ]
          [ ("speedup", v) ];
      ])

(* recovery floors hold at every live point, not only the largest *)
let test_budget_recovery () =
  at_the_bound "recovery,domains=2,speedup,min,1.5" (fun v ->
      List.map
        (fun (live, d, sp) ->
          row "recovery"
            [ ("shape", Row.Str "forest"); ("live", Row.Int live);
              ("domains", Row.Int d) ]
            [ ("speedup", sp) ])
        [ (2000, 1, 1.); (2000, 2, v); (20000, 1, 1.); (20000, 2, v +. 0.1) ])

(* one planted case per failure kind: none may disable a gate silently *)
let test_budget_rejects () =
  let malformed text =
    match Budget.parse ~file:"budgets.csv" ("# comment\n\n" ^ text ^ "\n") with
    | Error msg ->
        check
          (String.starts_with ~prefix:"budgets.csv:3:" msg)
          (text ^ ": the error names the line")
    | Ok _ -> Alcotest.failf "%s: parsed" text
  in
  List.iter malformed
    [
      "scaling,ds=list;threads=8,speedup,min,four";
      "scaling,ds=list;threads=8,speedup,4.0";
      "scaling,ds=list;threads=8,speedup,atleast,4.0";
      "scaling,threads8,speedup,min,4.0";
      "scaling,ds=list;threads=8,,min,4.0";
    ];
  let rows =
    [
      row "scaling" [ ("ds", Row.Str "list"); ("threads", Row.Int 8) ]
        [ ("speedup", 5.) ];
    ]
  in
  let invalid text =
    match verdict rows text with
    | Budget.Invalid _ -> ()
    | _ -> Alcotest.failf "%s: not rejected" text
  in
  invalid "scalng,ds=list;threads=8,speedup,min,4.0";
  invalid "scaling,ds=list;threads=8,speedups,min,4.0";
  invalid "scaling,ds=list;threads=16,speedup,min,4.0";
  invalid "scaling,ds=list;thread=8,speedup,min,4.0";
  let lines =
    List.map parse_one
      [
        "scaling,ds=list;threads=8,speedup,min,4.0";
        "scaling,ds=list;threads=16,speedup,min,4.0";
      ]
  in
  check (not (Budget.passed (Budget.check rows lines))) "an unmatched line fails";
  (* panels that ran in part skip what they did not run, nothing else *)
  let figure = parse_one "figure,algo=list/mirror,flushes_per_op,max,0.65" in
  match Budget.check ~partial:[ "scaling"; "figure" ] rows (figure :: lines) with
  | [ (_, Budget.Skipped); (_, Budget.Measured { ok = true; _ }); (_, Budget.Skipped) ]
    as results ->
      check (Budget.passed results) "skipped lines pass"
  | _ -> Alcotest.fail "partial panels must skip unmatched lines"

let suite =
  [
    ( "harness",
      [
        Alcotest.test_case "runner smoke" `Quick test_runner_smoke;
        Alcotest.test_case "modeled ordering" `Quick test_modeled_ordering;
        Alcotest.test_case "make_set combinations" `Quick
          test_make_set_combinations;
        Alcotest.test_case "panel inventory" `Quick test_panel_inventory;
        Alcotest.test_case "run tiny panel" `Slow test_run_tiny_panel;
        Alcotest.test_case "budget: strict worst-of" `Quick test_budget_strict;
        Alcotest.test_case "budget: buffered two bounds" `Quick
          test_budget_buffered;
        Alcotest.test_case "budget: line and scaling floors" `Quick
          test_budget_floors;
        Alcotest.test_case "budget: alloc sharded/lock" `Quick test_budget_alloc;
        Alcotest.test_case "budget: recovery speedup" `Quick
          test_budget_recovery;
        Alcotest.test_case "budget: planted failures" `Quick
          test_budget_rejects;
      ] );
  ]
