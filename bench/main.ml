(* Benchmark harness: one experiment per theorem / figure of the paper
   (see DESIGN.md section 4 and EXPERIMENTS.md for the recorded outcomes).

   Usage: dune exec bench/main.exe -- [FLAG]...  With no flag it runs every
   experiment; [cli_flags] below lists the flags, and --help prints them.

   BENCH_SYNTH_SLOWDOWN=0.25 in the environment stretches every
   experiment by +25% of its measured wall time with a busy spin that
   both computes and allocates, so the slowdown lands in CPU time and in
   the minor_words deltas the way a real code regression would: the
   regression gate's self-test injects slowdowns without touching code.
*)

module G = Core.Graph
module Gen = Core.Generators
module Sp = Core.Spanning
module P = Core.Part
module Sc = Core.Shortcut
module Q = Core.Quality
module W = Serve.Workload
module Sv = Serve.Server
module L = Serve.Loadgen

(* the section title printed last: every recorded event carries it *)
let current_section = ref ""

(* --full-trace: include the per-round series in every trace event *)
let full_trace = ref false

(* --no-breakdown suppresses the per-experiment span timing tables and the
   other wall-clock blocks — the only legitimately nondeterministic stdout *)
let no_breakdown = ref false

let section title =
  current_section := title;
  Printf.printf "\n=== %s ===\n%!" title

let subsection title = Printf.printf "\n-- %s --\n%!" title

(* record one document as a --jsonl sink event, when a sink is installed *)
let record ~type_ fields =
  if Obs.Sink.enabled () then
    Obs.Sink.emit ~type_ (("section", Obs.Sink.String !current_section) :: fields)

let record_row r =
  record ~type_:"quality"
    [
      ("label", Obs.Sink.String r.Q.label);
      ("n", Obs.Sink.Int r.Q.n);
      ("m", Obs.Sink.Int r.Q.m);
      ("diameter", Obs.Sink.Int r.Q.diameter);
      ("d_tree", Obs.Sink.Int r.Q.d_tree);
      ("parts", Obs.Sink.Int r.Q.nparts);
      ("b", Obs.Sink.Int r.Q.b);
      ("c", Obs.Sink.Int r.Q.c);
      ("q", Obs.Sink.Int r.Q.q);
      ( "obs_c",
        match r.Q.obs_c with Some x -> Obs.Sink.Int x | None -> Obs.Sink.Null );
    ]

(* per-experiment congestion accounting: every trace recorded while an
   experiment runs folds into these, and [run_experiment] snapshots them
   into the experiment's record/ledger entry — the aggregate the GH2020
   backend head-to-head will compare round-for-round *)
let exp_traces = ref 0
let exp_trace_rounds = ref 0
let exp_messages = ref 0
let exp_words = ref 0
let exp_max_edge_load = ref 0

let reset_congestion () =
  exp_traces := 0;
  exp_trace_rounds := 0;
  exp_messages := 0;
  exp_words := 0;
  exp_max_edge_load := 0

let congestion_json () =
  Obs.Sink.Obj
    [
      ("traces", Obs.Sink.Int !exp_traces);
      ("rounds", Obs.Sink.Int !exp_trace_rounds);
      ("messages", Obs.Sink.Int !exp_messages);
      ("words", Obs.Sink.Int !exp_words);
      ("max_edge_load", Obs.Sink.Int !exp_max_edge_load);
    ]

let record_trace ~label tr =
  let s = Core.Trace.summary tr in
  incr exp_traces;
  exp_trace_rounds := !exp_trace_rounds + s.Core.Trace.rounds;
  exp_messages := !exp_messages + s.Core.Trace.messages;
  exp_words := !exp_words + s.Core.Trace.words;
  exp_max_edge_load := max !exp_max_edge_load s.Core.Trace.max_edge_load;
  Core.Trace.emit ~label ~full:!full_trace tr

let print_rows rows =
  print_endline (Q.header ());
  List.iter
    (fun r ->
      record_row r;
      print_endline (Q.to_string r))
    rows

let log2 x = log (float_of_int (max 2 x)) /. log 2.0

(* measured aggregation rounds for a shortcut, the empirical q *)
let agg_rounds ?trace sc = Core.Aggregate.rounds_for_parts ?trace sc ~seed:11

(* --jobs N: each experiment below declares its parameter sweep as a list of
   independent cells and maps it through a domain pool.  Cells carry their
   own seeds and return data — rows, traces, preformatted lines; printing
   and --jsonl recording happen back on this domain, in canonical
   cell order, so stdout and record order are byte-identical whatever the
   job count (the determinism contract in DESIGN.md section 9). *)
let pool : Exec.Pool.t option ref = ref None

let sweep cells f =
  match !pool with Some p -> Exec.Pool.map_list p ~f cells | None -> List.map f cells

(* worker half of a congestion observation: run one traced aggregation over
   [sc]; pure data out, safe inside a sweep cell *)
let traced_congestion g sc =
  let tr = Core.Trace.create g in
  ignore (agg_rounds ~trace:tr sc);
  tr

(* main-domain half: record the trace and print the congestion profile *)
let report_congestion ~label tr =
  record_trace ~label tr;
  Printf.printf "trace %-28s %s\n" label
    (Core.Trace.summary_to_string (Core.Trace.summary tr))

(* ------------------------------------------------------------------ *)
(* E1: Theorem 4 [GH16] — planar graphs, b = O(log d), c = O(d log d)  *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1 (Theorem 4): planar graphs admit quality O(d log d) shortcuts";
  Printf.printf "prediction: q / (d log2 d) stays bounded as n grows\n";
  let grid_cells =
    sweep [ 16; 24; 32; 48; 64 ] (fun side ->
        let gp = Gen.grid side side in
        let g = gp.Gen.graph in
        let tree = Sp.bfs_tree g 0 in
        List.map
          (fun (wname, parts) ->
            let sc = Core.Generic.construct tree parts in
            let label = Printf.sprintf "grid %dx%d %s" side side wname in
            (* per-edge telemetry on the small instances: obs_c is the busiest
               edge of an actual traced aggregation, to hold against c *)
            let trace =
              if side <= 24 then Some (traced_congestion g sc) else None
            in
            let obs = Option.map Core.Trace.max_edge_load trace in
            (label, trace, Q.measure ~label ?observed_congestion:obs sc))
          [
            ("rows", P.grid_rows side side);
            ("voronoi", P.voronoi ~seed:side g ~count:(max 2 (side * side / 48)));
          ])
  in
  let apollonian_rows =
    sweep [ 500; 1000; 2000; 4000 ] (fun n ->
        let gp = Gen.apollonian ~seed:n n in
        let tree = Sp.bfs_tree gp.Gen.graph 0 in
        let parts = P.voronoi ~seed:3 gp.Gen.graph ~count:(max 2 (n / 40)) in
        let sc = Core.Generic.construct tree parts in
        Q.measure ~label:(Printf.sprintf "apollonian n=%d voronoi" n) sc)
  in
  let grid_rows =
    List.concat_map
      (List.map (fun (label, trace, row) ->
           Option.iter (report_congestion ~label) trace;
           row))
      grid_cells
  in
  let rows = grid_rows @ apollonian_rows in
  print_rows rows;
  Printf.printf "%-34s %10s\n" "workload" "q/(d lg d)";
  List.iter
    (fun r ->
      Printf.printf "%-34s %10.2f\n" r.Q.label
        (float_of_int r.Q.q /. (float_of_int (max 1 r.Q.d_tree) *. log2 r.Q.d_tree)))
    rows

(* ------------------------------------------------------------------ *)
(* E2: Theorem 5 [HIZ16b] — treewidth-k: b = O(k), c = O(k log n)      *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2 (Theorem 5): treewidth-k graphs, b = O(k), c = O(k log n)";
  Printf.printf "prediction: b flat in n (depends only on k); c/(k log2 n) bounded\n";
  let cells =
    List.concat_map
      (fun k -> List.map (fun n -> (k, n)) [ 512; 1024; 2048 ])
      [ 2; 3; 5 ]
  in
  let results =
    sweep cells (fun (k, n) ->
        let g, elim = Gen.k_tree ~seed:(n + k) ~k n in
        let td = Core.Tree_decomposition.of_elimination_order g elim in
        let tree = Sp.bfs_tree g 0 in
        let parts = P.voronoi ~seed:k g ~count:(max 2 (n / 64)) in
        let sc = Core.Tw_shortcut.construct ~decomposition:td g tree parts in
        let label = Printf.sprintf "k-tree k=%d n=%d" k n in
        let trace = if n = 512 then Some (traced_congestion g sc) else None in
        let obs = Option.map Core.Trace.max_edge_load trace in
        (k, label, trace, Q.measure ~label ?observed_congestion:obs sc))
  in
  let rows =
    List.map
      (fun (k, label, trace, row) ->
        Option.iter (report_congestion ~label) trace;
        (k, row))
      results
  in
  print_rows (List.map snd rows);
  Printf.printf "%-34s %6s %12s\n" "workload" "b/k" "c/(k lg n)";
  List.iter
    (fun (k, r) ->
      Printf.printf "%-34s %6.2f %12.2f\n" r.Q.label
        (float_of_int r.Q.b /. float_of_int k)
        (float_of_int r.Q.c /. (float_of_int k *. log2 r.Q.n)))
    rows

(* ------------------------------------------------------------------ *)
(* E3: Theorem 7 + Lemma 1 — clique-sums preserve shortcuts            *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3 (Theorem 7 / Lemma 1): clique-sums of planar bags";
  Printf.printf
    "prediction: b <= 2k + O(b_F), c <= O(k log^2 n) + c_F; folding removes the\n\
     decomposition-tree-depth factor from the congestion\n";
  let make_cs shape nbags =
    Core.Clique_sum.compose ~seed:17 ~k:3 ~shape
      (List.init nbags (fun i -> (Gen.apollonian ~seed:(300 + i) 60).Gen.graph))
  in
  List.iter
    (fun (sname, shape) ->
      subsection (Printf.sprintf "decomposition shape: %s" sname);
      sweep [ 10; 20; 40 ] (fun nbags ->
          let cs = make_cs shape nbags in
          let g = cs.Core.Clique_sum.graph in
          let tree = Sp.bfs_tree g 0 in
          let parts = P.voronoi ~seed:5 g ~count:(max 4 (nbags * 2)) in
          let folded, _, `Depth_used dfold =
            Core.Cs_shortcut.construct_with_stats ~use_fold:true cs tree parts
          in
          let raw, _, `Depth_used draw =
            Core.Cs_shortcut.construct_with_stats ~use_fold:false cs tree parts
          in
          let generic = Core.Generic.construct tree parts in
          [
            Q.measure
              ~label:(Printf.sprintf "%d bags, folded (dDT %d->%d)" nbags draw dfold)
              folded;
            Q.measure ~label:(Printf.sprintf "%d bags, unfolded" nbags) raw;
            Q.measure ~label:(Printf.sprintf "%d bags, uniform constr." nbags) generic;
          ])
      |> List.iter print_rows)
    [ ("path", Core.Clique_sum.Path); ("random tree", Core.Clique_sum.Random_tree) ]

(* ------------------------------------------------------------------ *)
(* E4: Theorem 8/9, Lemmas 9-10 — almost-embeddable graphs             *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4 (Theorem 8/9, Lemmas 9-10): almost-embeddable graphs, b,c = O(d)";
  Printf.printf "prediction: quality ~ d for fixed (q,g,k,l); apex collapse handled\n";
  subsection "apex diameter collapse (cycle + apex, Lemma 9's hard case)";
  sweep [ 129; 257; 513; 1025 ] (fun n ->
      let g = Gen.cycle_with_apex n in
      let tree = Sp.bfs_tree g (n - 1) in
      let half = (n - 1) / 2 in
      let parts =
        P.of_list g
          [ List.init half (fun i -> i); List.init (n - 1 - half) (fun i -> half + i) ]
      in
      let apex = Core.Apex_shortcut.construct ~apices:[| n - 1 |] tree parts in
      let generic = Core.Generic.construct tree parts in
      let flood = Sc.empty tree parts in
      Printf.sprintf
        "wheel n=%4d (D=2): apex-construction q=%3d (agg %3d rds) | uniform q=%3d | \
         flooding agg %4d rds"
        n (Sc.quality apex) (agg_rounds apex) (Sc.quality generic) (agg_rounds flood))
  |> List.iter print_endline;
  subsection "(q,g,k,l)-almost-embeddable sweep";
  let rows =
    sweep
      [
        (0, 0, 1, 20, 10);
        (1, 1, 1, 30, 12);
        (2, 2, 2, 40, 14);
        (2, 2, 2, 60, 20);
        (3, 3, 3, 80, 24);
      ]
      (fun (handles, vortices, apices, width, height) ->
        let ae =
          Core.Almost_embeddable.make ~seed:(width + handles) ~width ~height ~handles
            ~vortices ~vortex_depth:2 ~vortex_nodes:5 ~apices ~apex_fanout:8
        in
        let g = ae.Core.Almost_embeddable.graph in
        let tree = Sp.bfs_tree g 0 in
        let parts = P.voronoi ~seed:7 g ~count:(max 4 (G.n g / 60)) in
        let sc =
          Core.Apex_shortcut.construct ~apices:ae.Core.Almost_embeddable.apices tree
            parts
        in
        let label =
          Printf.sprintf "AE(q=%d,g=%d,k=2,l=%d) %dx%d" apices handles vortices width
            height
        in
        Q.measure ~label sc)
  in
  print_rows rows;
  subsection "Theorem 9 pipeline: genus+vortex treewidth bound (Lemma 2/3)";
  sweep [ (20, 14, 1); (30, 14, 2); (40, 16, 3) ] (fun (w, h, holes) ->
      let base, rings =
        Core.Almost_embeddable.grid_with_holes w h ~holes ~hole_size:5
      in
      let g, vortices =
        Array.to_list rings
        |> List.fold_left
             (fun (g, acc) ring ->
               let g', v = Core.Vortex.add ~seed:(w + h) g ~cycle:ring ~nodes:5 ~depth:2 in
               (g', v :: acc))
             (base, [])
      in
      let td = Core.Genus_vortex.decompose_with_vortices g vortices in
      let valid = Core.Tree_decomposition.check g td = Ok () in
      let d = Core.Distance.diameter_double_sweep g in
      let tree = Sp.bfs_tree g 0 in
      let parts = P.voronoi ~seed:3 g ~count:(max 4 (G.n g / 60)) in
      let sc = Core.Tw_shortcut.construct ~decomposition:td g tree parts in
      Printf.sprintf
        "grid %dx%d, %d vortices: width=%d (Lemma 3 bound %d, valid=%b) | \
         Thm 9 shortcut b=%d c=%d q=%d"
        w h holes
        (Core.Tree_decomposition.width td)
        (Core.Genus_vortex.width_bound ~g:0 ~k:2 ~l:holes ~d)
        valid (Sc.block_parameter sc) (Sc.congestion sc) (Sc.quality sc))
  |> List.iter print_endline

(* ------------------------------------------------------------------ *)
(* E5: Theorem 6 (Main) — excluded-minor families, q(d) = O~(d^2)      *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5 (Theorem 6, Main): L_k graphs admit q(d) = O~(d^2)";
  Printf.printf
    "prediction: q / d^2 bounded (in practice q ~ d: the paper's introduction\n\
     expects the O~(D) behaviour on most instances)\n";
  let results =
    sweep [ 4; 8; 16 ] (fun pieces_count ->
        let pieces =
          List.init pieces_count (fun i ->
              (Core.Almost_embeddable.make ~seed:(i * 31) ~width:24 ~height:10
                 ~handles:1 ~vortices:1 ~vortex_depth:2 ~vortex_nodes:4 ~apices:1
                 ~apex_fanout:5)
                .Core.Almost_embeddable.graph)
        in
        let cs =
          Core.Clique_sum.compose ~seed:pieces_count ~k:3
            ~shape:Core.Clique_sum.Random_tree pieces
        in
        let warning =
          match Core.Clique_sum.check cs with
          | Ok () -> None
          | Error e -> Some (Printf.sprintf "WARNING: decomposition invalid: %s" e)
        in
        let g = cs.Core.Clique_sum.graph in
        let tree = Sp.bfs_tree g 0 in
        let parts = P.voronoi ~seed:2 g ~count:(max 4 (G.n g / 80)) in
        let certified = Core.Cs_shortcut.construct cs tree parts in
        let generic = Core.Generic.construct tree parts in
        ( warning,
          [
            Q.measure
              ~label:(Printf.sprintf "L_3 %d pieces, certified" pieces_count)
              certified;
            Q.measure ~label:(Printf.sprintf "L_3 %d pieces, uniform" pieces_count)
              generic;
          ] ))
  in
  let rows =
    List.concat_map
      (fun (warning, rs) ->
        Option.iter print_endline warning;
        rs)
      results
  in
  print_rows rows;
  Printf.printf "%-34s %8s %8s\n" "workload" "q/d" "q/d^2";
  List.iter
    (fun r ->
      let d = float_of_int (max 1 r.Q.d_tree) in
      Printf.printf "%-34s %8.2f %8.4f\n" r.Q.label (float_of_int r.Q.q /. d)
        (float_of_int r.Q.q /. (d *. d)))
    rows

(* ------------------------------------------------------------------ *)
(* E6: Theorem 1 + Corollary 1 — distributed MST round counts          *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6 (Theorem 1 / Corollary 1): distributed MST, three algorithms";
  Printf.printf
    "prediction: on low-diameter excluded-minor networks shortcut-Boruvka beats\n\
     flooding (which pays fragment diameter) and pipelining (which pays sqrt n)\n";
  Printf.printf "%-28s %6s %5s | %9s %9s %9s\n" "network" "n" "D" "shortcut" "flooding"
    "pipelined";
  (* each cell returns its full output block as a string (warnings first),
     so worker domains never print *)
  let run name g w =
    let b = Buffer.create 128 in
    let r1 = Core.Mst.boruvka ~constructor:Core.Mst.shortcut_constructor g w in
    let r2 = Core.Mst.boruvka ~constructor:Core.Mst.no_shortcut_constructor g w in
    let r3 = Core.Mst.pipelined g w in
    List.iter
      (fun (r : Core.Mst.report) ->
        match Core.Mst.check g w r with
        | Ok () -> ()
        | Error e -> Printf.bprintf b "  WARNING %s: %s\n" name e)
      [ r1; r2; r3 ];
    Printf.bprintf b "%-28s %6d %5d | %9d %9d %9d" name (G.n g)
      (Core.Distance.diameter_double_sweep g)
      r1.Core.Mst.rounds r2.Core.Mst.rounds r3.Core.Mst.rounds;
    Buffer.contents b
  in
  sweep
    ((* wheels with heavy spokes: fragments are long rim arcs *)
     List.map (fun n -> `Wheel n) [ 129; 257; 513; 1025 ]
    (* planar grids *)
    @ List.map (fun side -> `Grid side) [ 16; 24; 32 ]
    (* random planar *)
    @ List.map (fun n -> `Apollonian n) [ 512; 2048 ]
    (* excluded-minor L_k *)
    @ [ `Clique_sum ]
    (* the lower-bound family: nobody escapes sqrt n here *)
    @ List.map (fun p -> `Lower_bound p) [ 8; 16 ])
    (function
      | `Wheel n ->
          let g = Gen.cycle_with_apex n in
          let st = Random.State.make [| n |] in
          let w =
            Array.init (G.m g) (fun e ->
                let u, v = G.edge g e in
                if u = n - 1 || v = n - 1 then 10.0 +. Random.State.float st 1.0
                else Random.State.float st 1.0)
          in
          run (Printf.sprintf "wheel (heavy spokes) %d" n) g w
      | `Grid side ->
          let g = (Gen.grid side side).Gen.graph in
          run
            (Printf.sprintf "grid %dx%d" side side)
            g
            (G.random_weights ~state:(Random.State.make [| side |]) g)
      | `Apollonian n ->
          let g = (Gen.apollonian ~seed:n n).Gen.graph in
          run
            (Printf.sprintf "apollonian %d" n)
            g
            (G.random_weights ~state:(Random.State.make [| n |]) g)
      | `Clique_sum ->
          let pieces =
            List.init 6 (fun i ->
                (Core.Almost_embeddable.make ~seed:(i * 7) ~width:20 ~height:10
                   ~handles:1 ~vortices:1 ~vortex_depth:2 ~vortex_nodes:4 ~apices:1
                   ~apex_fanout:5)
                  .Core.Almost_embeddable.graph)
          in
          let cs =
            Core.Clique_sum.compose ~seed:3 ~k:3 ~shape:Core.Clique_sum.Random_tree
              pieces
          in
          let g = cs.Core.Clique_sum.graph in
          run "L_3 clique-sum" g (G.random_weights g)
      | `Lower_bound p ->
          let g, _ = Gen.lower_bound p in
          run
            (Printf.sprintf "lower-bound p=%d" p)
            g
            (G.random_weights ~state:(Random.State.make [| p |]) g))
  |> List.iter print_endline;
  subsection "message complexity (same runs, total simulated messages)";
  sweep
    [
      ("wheel (heavy spokes) 513", `Wheel513);
      ("grid 24x24", `Grid24);
    ]
    (fun (name, which) ->
      let g =
        match which with
        | `Wheel513 -> Gen.cycle_with_apex 513
        | `Grid24 -> (Gen.grid 24 24).Gen.graph
      in
      let w = G.random_weights ~state:(Random.State.make [| 5 |]) g in
      let r1 = Core.Mst.boruvka ~constructor:Core.Mst.shortcut_constructor g w in
      let r2 = Core.Mst.boruvka ~constructor:Core.Mst.no_shortcut_constructor g w in
      Printf.sprintf "%-28s shortcut: %7d msgs | flooding: %7d msgs" name
        r1.Core.Mst.messages r2.Core.Mst.messages)
  |> List.iter print_endline;
  subsection "charged vs fully-simulated phases (echo & rename floods run live)";
  sweep
    [
      ("grid 16x16", `Grid16);
      ("wheel 257", `Wheel257);
      ("apollonian 512", `Ap512);
    ]
    (fun (name, which) ->
      let g =
        match which with
        | `Grid16 -> (Gen.grid 16 16).Gen.graph
        | `Wheel257 -> Gen.cycle_with_apex 257
        | `Ap512 -> (Gen.apollonian ~seed:2 512).Gen.graph
      in
      let w = G.random_weights ~state:(Random.State.make [| 3 |]) g in
      let charged = Core.Mst.boruvka ~constructor:Core.Mst.shortcut_constructor g w in
      let full = Core.Mst.boruvka_full ~constructor:Core.Mst.shortcut_constructor g w in
      Printf.sprintf "%-28s charged=%5d  fully-simulated=%5d  (both exact: %b)" name
        charged.Core.Mst.rounds full.Core.Mst.rounds
        (Core.Mst.check g w charged = Ok () && Core.Mst.check g w full = Ok ()))
  |> List.iter print_endline

(* ------------------------------------------------------------------ *)
(* E7: Corollary 1 — (1+eps)-approximate min-cut                       *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7 (Corollary 1): distributed approximate min-cut vs Stoer-Wagner";
  Printf.printf "%-28s %6s | %8s %9s %7s %8s\n" "network" "n" "exact" "estimate" "ratio"
    "rounds";
  sweep [ `Grid10; `Ap200; `Ktree; `Er; `GridW ] (fun which ->
      let name, g, w =
        match which with
        | `Grid10 ->
            let g = (Gen.grid 10 10).Gen.graph in
            ("grid 10x10", g, G.unit_weights g)
        | `Ap200 ->
            let g = (Gen.apollonian ~seed:4 200).Gen.graph in
            ("apollonian 200", g, G.unit_weights g)
        | `Ktree ->
            let g, _ = Gen.k_tree ~seed:5 ~k:3 150 in
            ("3-tree 150", g, G.unit_weights g)
        | `Er ->
            let g = Gen.erdos_renyi ~seed:8 120 0.08 in
            ("G(120, .08)", g, G.unit_weights g)
        | `GridW ->
            let g = (Gen.grid 12 12).Gen.graph in
            let st = Random.State.make [| 9 |] in
            let w = Array.init (G.m g) (fun _ -> 0.5 +. Random.State.float st 2.0) in
            ("grid 12x12 weighted", g, w)
      in
      let exact = Core.Mincut.stoer_wagner g w in
      let r =
        Core.Mincut.approx ~trees:8 ~seed:23 ~constructor:Core.Mst.shortcut_constructor
          g w
      in
      Printf.sprintf "%-28s %6d | %8.2f %9.2f %7.3f %8d" name (G.n g) exact
        r.Core.Mincut.estimate
        (r.Core.Mincut.estimate /. exact)
        r.Core.Mincut.rounds)
  |> List.iter print_endline;
  subsection "1-respecting vs 2-respecting cuts (Karger's full guarantee)";
  (* the star+bond instance where the min cut 2-respects but never 1-respects *)
  let g = G.of_edges 4 [ (0, 1); (0, 2); (0, 3); (1, 2) ] in
  let wb = Array.make 4 1.0 in
  (match G.find_edge g 0 3 with Some e -> wb.(e) <- 10.0 | None -> ());
  (match G.find_edge g 1 2 with Some e -> wb.(e) <- 10.0 | None -> ());
  let tree = Sp.bfs_tree g 0 in
  Printf.printf "star+bond: exact=%.1f  1-respecting=%.1f  2-respecting=%.1f\n"
    (Core.Mincut.stoer_wagner g wb)
    (fst (Core.Mincut.one_respecting_cut g wb tree))
    (Core.Mincut.two_respecting_cut g wb tree);
  let g8 = (Gen.grid 8 8).Gen.graph in
  let w8 = G.unit_weights g8 in
  let r1 =
    Core.Mincut.approx ~trees:4 ~seed:6 ~constructor:Core.Mst.shortcut_constructor g8 w8
  in
  let r2 =
    Core.Mincut.approx ~trees:4 ~two_respecting:true ~seed:6
      ~constructor:Core.Mst.shortcut_constructor g8 w8
  in
  Printf.printf "grid 8x8 (exact %.1f): 1-respecting estimate %.1f, 2-respecting %.1f\n"
    (Core.Mincut.stoer_wagner g8 w8) r1.Core.Mincut.estimate r2.Core.Mincut.estimate

(* ------------------------------------------------------------------ *)
(* E8: the SHK+12 lower-bound family — sqrt n is unavoidable there     *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8 ([SHK+12] lower bound): Gamma(p) forces quality ~ sqrt n";
  Printf.printf
    "prediction: on Gamma(p) (D = O(log n)) the best achievable quality grows\n\
     like p = sqrt n, while excluded-minor graphs of similar diameter stay at\n\
     polylog quality: the separation motivating the whole paper\n";
  let gamma_rows =
    sweep [ 8; 12; 16; 24; 32 ] (fun p ->
        let g, path_parts = Gen.lower_bound_parts p in
        let tree = Sp.bfs_tree g (G.n g - 1) in
        let parts = P.of_list g path_parts in
        let sc = Core.Generic.construct tree parts in
        Q.measure ~label:(Printf.sprintf "Gamma(%d) sqrt(n)=%d" p p) sc)
  in
  let wheel_rows =
    sweep [ 65; 145; 257; 577; 1025 ] (fun n ->
        let g = Gen.cycle_with_apex n in
        let tree = Sp.bfs_tree g (n - 1) in
        let half = (n - 1) / 2 in
        let parts =
          P.of_list g
            [
              List.init half (fun i -> i); List.init (n - 1 - half) (fun i -> half + i);
            ]
        in
        let sc = Core.Generic.construct tree parts in
        Q.measure ~label:(Printf.sprintf "wheel n=%d (minor-free)" n) sc)
  in
  let rows = gamma_rows @ wheel_rows in
  print_rows rows;
  Printf.printf "%-34s %10s\n" "workload" "q/sqrt(n)";
  List.iter
    (fun r ->
      Printf.printf "%-34s %10.2f\n" r.Q.label
        (float_of_int r.Q.q /. sqrt (float_of_int r.Q.n)))
    rows;
  let gamma_pts, wheel_pts =
    List.partition (fun r -> String.length r.Q.label > 0 && r.Q.label.[0] = 'G') rows
  in
  let pts rs = List.map (fun r -> (float_of_int r.Q.n, float_of_int r.Q.q)) rs in
  (* fit_exponent_opt is None below two usable points; print an explicit
     marker and record JSON null rather than leaking a nan *)
  let fit ~label points =
    let v = Q.fit_exponent_opt points in
    record ~type_:"fit_exponent"
      [
        ("label", Obs.Sink.String label);
        ("points", Obs.Sink.Int (List.length points));
        ( "exponent",
          match v with Some e -> Obs.Sink.Float e | None -> Obs.Sink.Null );
      ];
    match v with
    | Some e -> Printf.sprintf "%.2f" e
    | None -> "insufficient points"
  in
  Printf.printf
    "fitted exponent of q vs n: Gamma(p) %s (theory 0.5) | wheels %s (theory 0)\n"
    (fit ~label:"gamma" (pts gamma_pts))
    (fit ~label:"wheels" (pts wheel_pts))

(* ------------------------------------------------------------------ *)
(* E9: HIZ16a — distributed shortcut construction cost                 *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9 (HIZ16a): distributed shortcut-construction cost ~ O~(q)";
  Printf.printf
    "prediction: the pipelined load-convergecast that builds the shortcut costs\n\
     about depth + max Steiner load, i.e. the same currency as one use of the\n\
     shortcut — construction is never the bottleneck\n";
  Printf.printf "%-30s %6s %6s | %12s %10s %10s\n" "network" "n" "d_T" "construction"
    "max load" "agg rounds";
  sweep
    [
      ("grid 16x16", `Grid 16, 10);
      ("grid 32x32", `Grid 32, 20);
      ("apollonian 1000", `Apollonian, 25);
      ("wheel 513", `Wheel, 2);
      ("lower-bound p=16", `Lower_bound, 16);
    ]
    (fun (name, which, nparts) ->
      let g =
        match which with
        | `Grid side -> (Gen.grid side side).Gen.graph
        | `Apollonian -> (Gen.apollonian ~seed:1 1000).Gen.graph
        | `Wheel -> Gen.cycle_with_apex 513
        | `Lower_bound -> fst (Gen.lower_bound 16)
      in
      let tree = Sp.bfs_tree g 0 in
      let parts = P.voronoi ~seed:9 g ~count:nparts in
      let r = Core.Construct.distributed_generic tree parts in
      let agg = agg_rounds r.Core.Construct.shortcut in
      Printf.sprintf "%-30s %6d %6d | %12d %10d %10d" name (G.n g)
        (Sp.height tree) r.Core.Construct.construction_rounds
        r.Core.Construct.max_load agg)
  |> List.iter print_endline

(* ------------------------------------------------------------------ *)
(* E10: the full distributed pipeline, primitive by primitive          *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10: the distributed pipeline end to end (rounds per primitive)";
  Printf.printf
    "every stage simulated in-model: BFS tree, Voronoi partition, shortcut\n\
     construction (E9 schedule), one MIN aggregation, one SUM aggregation\n";
  Printf.printf "%-24s %6s %4s | %6s %10s %10s %6s %6s\n" "network" "n" "D" "bfs"
    "partition" "construct" "min" "sum";
  sweep
    [
      ("grid 24x24", `Grid, 12);
      ("apollonian 1000", `Apollonian, 20);
      ("wheel 513", `Wheel, 8);
      ("torus 16x16", `Torus, 10);
    ]
    (fun (name, which, nseeds) ->
      let g =
        match which with
        | `Grid -> (Gen.grid 24 24).Gen.graph
        | `Apollonian -> (Gen.apollonian ~seed:3 1000).Gen.graph
        | `Wheel -> Gen.cycle_with_apex 513
        | `Torus -> Gen.torus_grid 16 16
      in
      let _, bfs_stats = Core.Dist_bfs.run g ~root:0 in
      let st = Random.State.make [| 7 |] in
      let seeds =
        let chosen = Hashtbl.create nseeds in
        while Hashtbl.length chosen < nseeds do
          Hashtbl.replace chosen (Random.State.int st (G.n g)) ()
        done;
        Array.of_seq (Hashtbl.to_seq_keys chosen)
      in
      let pres = Core.Partition.voronoi g ~seeds in
      assert (Core.Partition.verify g ~seeds pres);
      let parts = Core.Partition.to_parts g pres in
      let tree = Sp.bfs_tree g 0 in
      let cres = Core.Construct.distributed_generic tree parts in
      let sc = cres.Core.Construct.shortcut in
      let min_rounds = agg_rounds sc in
      let values = Array.init (G.n g) (fun _ -> Some (Random.State.float st 1.0)) in
      let sres = Core.Aggregate.sum sc ~values in
      assert (Core.Aggregate.verify_sum sc ~values sres);
      Printf.sprintf "%-24s %6d %4d | %6d %10d %10d %6d %6d" name (G.n g)
        (Core.Distance.diameter_double_sweep g)
        bfs_stats.Core.Network.rounds pres.Core.Partition.stats.Core.Network.rounds
        cres.Core.Construct.construction_rounds min_rounds
        sres.Core.Aggregate.rounds)
  |> List.iter print_endline;
  subsection "near-optimality audit (brute-force ground truth, tiny instances)";
  let ratios =
    sweep
      (List.init 40 (fun i -> i + 1))
      (fun seed ->
        let g = Gen.erdos_renyi ~seed:(seed * 71) (8 + (seed mod 8)) 0.35 in
        let tree = Sp.bfs_tree g 0 in
        let parts = P.voronoi ~seed g ~count:3 in
        match Core.Optimal.optimal_quality tree parts with
        | Some opt ->
            let q = Sc.quality (Core.Generic.construct tree parts) in
            Some (float_of_int q /. float_of_int (max 1 opt))
        | None -> None)
  in
  let worst = ref 1.0 and count = ref 0 in
  List.iter
    (Option.iter (fun r ->
         incr count;
         if r > !worst then worst := r))
    ratios;
  Printf.printf
    "uniform construction vs exact optimum on %d instances: worst ratio %.2f\n" !count
    !worst

(* ------------------------------------------------------------------ *)
(* A1: ablations — design choices DESIGN.md calls out                  *)
(* ------------------------------------------------------------------ *)

let a1 () =
  section "A1 (ablations): pruning policy, kappa sweep, folding";
  subsection "pruning policy: Keep_kappa vs Drop_all (grid 32x32, voronoi)";
  let gp = Gen.grid 32 32 in
  let tree = Sp.bfs_tree gp.Gen.graph 0 in
  sweep
    [
      ("rows", P.grid_rows 32 32);
      ("voronoi", P.voronoi ~seed:4 gp.Gen.graph ~count:24);
      ("fragments", P.boruvka_fragments gp.Gen.graph (G.random_weights gp.Gen.graph) ~level:3);
    ]
    (fun (wname, parts) ->
      let q_keep =
        Sc.quality (Core.Generic.construct ~policy:Core.Generic.Keep_kappa tree parts)
      in
      let q_drop =
        Sc.quality (Core.Generic.construct ~policy:Core.Generic.Drop_all tree parts)
      in
      Printf.sprintf "%-12s keep_kappa q=%-5d drop_all q=%-5d" wname q_keep q_drop)
  |> List.iter print_endline;
  subsection "the kappa tradeoff curve (lower-bound Gamma(16), path parts)";
  let g, path_parts = Gen.lower_bound_parts 16 in
  let t = Sp.bfs_tree g (G.n g - 1) in
  let parts = P.of_list g path_parts in
  let _, curve = Core.Generic.construct_with_stats t parts in
  List.iter
    (fun p -> Printf.printf "  kappa=%-5d q=%d\n" p.Core.Generic.kappa p.Core.Generic.q)
    curve;
  subsection "folding ablation: congestion with vs without compression";
  let cs =
    Core.Clique_sum.compose ~seed:2 ~k:2 ~shape:Core.Clique_sum.Path
      (List.init 60 (fun i -> Gen.cycle (4 + (i mod 5))))
  in
  let gt = Sp.bfs_tree cs.Core.Clique_sum.graph 0 in
  let ps = P.voronoi ~seed:3 cs.Core.Clique_sum.graph ~count:12 in
  let with_fold, _, `Depth_used df =
    Core.Cs_shortcut.construct_with_stats ~use_fold:true cs gt ps
  in
  let without, _, `Depth_used dr =
    Core.Cs_shortcut.construct_with_stats ~use_fold:false cs gt ps
  in
  Printf.printf "60-bag path: folded depth %d -> c=%d q=%d | raw depth %d -> c=%d q=%d\n"
    df (Sc.congestion with_fold) (Sc.quality with_fold) dr (Sc.congestion without)
    (Sc.quality without)

(* ------------------------------------------------------------------ *)
(* OP1: the paper's open problem (§2.4)                                *)
(* ------------------------------------------------------------------ *)

let op1 () =
  section "OP1 (open problem, §2.4): can b = O(d) be pushed to O~(1)?";
  Printf.printf
    "the bottleneck the paper identifies is the treewidth argument on\n\
     Genus+Vortex graphs; we print the (b, c) Pareto frontier of the sweep\n\
     on a vortex-bearing instance vs a plain planar one of the same size —\n\
     if b could be O~(1) at c = O~(d), the vortex frontier would bend like\n\
     the planar one\n";
  let show name g parts =
    let b = Buffer.create 256 in
    let tree = Sp.bfs_tree g 0 in
    let pts = Core.Generic.frontier tree parts in
    Printf.bprintf b "%s (d_T=%d):\n" name (Sp.height tree);
    List.iter
      (fun p ->
        Printf.bprintf b "  kappa=%-5d b=%-4d c=%-5d q=%d\n" p.Core.Generic.kappa
          p.Core.Generic.b p.Core.Generic.c p.Core.Generic.q)
      pts;
    Buffer.contents b
  in
  sweep [ `Plain; `Vortex ] (function
    | `Plain ->
        let plain = (Gen.grid 30 14).Gen.graph in
        show "plain grid 30x14" plain (P.voronoi ~seed:4 plain ~count:10)
    | `Vortex ->
        let base, rings =
          Core.Almost_embeddable.grid_with_holes 30 14 ~holes:2 ~hole_size:5
        in
        let gv, _ =
          Array.to_list rings
          |> List.fold_left
               (fun (g, acc) ring ->
                 let g', v = Core.Vortex.add ~seed:7 g ~cycle:ring ~nodes:6 ~depth:3 in
                 (g', v :: acc))
               (base, [])
        in
        show "grid 30x14 + 2 depth-3 vortices" gv (P.voronoi ~seed:4 gv ~count:10))
  |> List.iter print_string

(* ------------------------------------------------------------------ *)
(* F1: Figure 1 — the three GST ingredients                            *)
(* ------------------------------------------------------------------ *)

let f1 () =
  section "F1 (Figure 1): apex, vortex, clique-sum ingredients";
  subsection "F1a: a planar graph with an added apex";
  let base = (Gen.apollonian ~seed:12 80).Gen.graph in
  let apexed = Gen.add_apices ~seed:12 base ~q:1 ~fanout:80 in
  Printf.printf "base planar=%b; with apex planar=%b; diameter %d -> %d\n"
    (Core.Planarity.is_planar base)
    (Core.Planarity.is_planar apexed)
    (Core.Distance.diameter_double_sweep base)
    (Core.Distance.diameter_double_sweep apexed);
  subsection "F1b: a cycle with an added vortex of depth 2";
  let c = Gen.cycle 16 in
  let g, v =
    Core.Vortex.add ~seed:2 c ~cycle:(Array.init 16 (fun i -> i)) ~nodes:8 ~depth:2
  in
  Printf.printf "vortex check: %s; internal nodes %d; boundary %d; depth %d\n"
    (match Core.Vortex.check g v with Ok () -> "valid" | Error e -> "INVALID " ^ e)
    (Array.length v.Core.Vortex.internal)
    (Array.length v.Core.Vortex.boundary)
    v.Core.Vortex.depth;
  subsection "F1c: a 3-clique-sum of two planar pieces";
  let cs =
    Core.Clique_sum.compose ~seed:8 ~k:3 ~shape:Core.Clique_sum.Path
      [ (Gen.apollonian ~seed:21 30).Gen.graph; (Gen.apollonian ~seed:22 30).Gen.graph ]
  in
  Printf.printf "decomposition: %s; bags %d; separator size %d; glued n=%d\n"
    (match Core.Clique_sum.check cs with Ok () -> "valid" | Error e -> "INVALID " ^ e)
    (Core.Clique_sum.nbags cs)
    (Array.length cs.Core.Clique_sum.separators.(1))
    (G.n cs.Core.Clique_sum.graph)

(* ------------------------------------------------------------------ *)
(* F2/F3: Figures 2-3 — global vs local shortcut anatomy               *)
(* ------------------------------------------------------------------ *)

let f23 () =
  section "F2/F3 (Figures 2-3): global vs local shortcut anatomy on a path of bags";
  let cs =
    Core.Clique_sum.compose ~seed:31 ~k:3 ~shape:Core.Clique_sum.Path
      (List.init 12 (fun i -> (Gen.apollonian ~seed:(400 + i) 40).Gen.graph))
  in
  let g = cs.Core.Clique_sum.graph in
  let tree = Sp.bfs_tree g 0 in
  let parts = P.voronoi ~seed:13 g ~count:14 in
  let sc, `Global_grants grants, `Depth_used depth =
    Core.Cs_shortcut.construct_with_stats cs tree parts
  in
  Printf.printf "parts=%d folded-depth=%d global (part,edge) grants=%d total grants=%d\n"
    (P.count parts) depth grants (Sc.total_assigned sc);
  print_rows [ Q.measure ~label:"path-of-bags, local+global" sc ];
  Printf.printf "aggregation rounds: %d\n" (agg_rounds sc)

(* ------------------------------------------------------------------ *)
(* F4: Figure 4 — folding a deep decomposition tree                    *)
(* ------------------------------------------------------------------ *)

let f4 () =
  section "F4 (Figure 4): heavy-light folding compresses DT depth to O(log^2 n)";
  Printf.printf "%-22s %10s %12s %14s\n" "tree" "bags" "raw depth" "folded depth";
  sweep [ 64; 256; 1024; 4096 ] (fun n ->
      let parent = Array.init n (fun i -> i - 1) in
      let f = Core.Fold.fold ~parent in
      Printf.sprintf "%-22s %10d %12d %14d"
        (Printf.sprintf "path(%d)" n)
        n
        (Core.Fold.tree_depth parent)
        (Core.Fold.depth f))
  |> List.iter print_endline;
  sweep [ 256; 1024; 4096 ] (fun n ->
      let g = Gen.random_tree ~seed:(n + 1) n in
      let t = Sp.bfs_tree g 0 in
      let f = Core.Fold.fold ~parent:t.Sp.parent in
      Printf.sprintf "%-22s %10d %12d %14d"
        (Printf.sprintf "random tree(%d)" n)
        n
        (Core.Fold.tree_depth t.Sp.parent)
        (Core.Fold.depth f))
  |> List.iter print_endline;
  let n = 2048 in
  let parent =
    Array.init n (fun i -> if i = 0 then -1 else if i mod 2 = 0 then i - 2 else i - 1)
  in
  let f = Core.Fold.fold ~parent in
  Printf.printf "%-22s %10d %12d %14d\n" "caterpillar(2048)" n
    (Core.Fold.tree_depth parent) (Core.Fold.depth f)

(* ------------------------------------------------------------------ *)
(* F5/F6: Figures 5-6 — gates, fences, extremal edges                  *)
(* ------------------------------------------------------------------ *)

let f56 () =
  section "F5/F6 (Figures 5-6): combinatorial gates on embedded planar graphs";
  Printf.printf "%-26s %6s %6s %8s %10s %12s\n" "instance" "cells" "gates" "d(cell)"
    "sum|F|" "s = sum/|C|";
  let gate_line ~name gp k seed =
    let cells = P.voronoi ~seed gp.Gen.graph ~count:k in
    let gates = Core.Gate.build gp.Gen.graph ~coords:gp.Gen.coords ~cells in
    let status =
      match Core.Gate.check gp.Gen.graph ~cells gates with
      | Ok () -> ""
      | Error e -> "  CHECK FAILED: " ^ e
    in
    let d = Core.Cell.diameter gp.Gen.graph cells in
    let sum = Core.Gate.fence_total gates in
    Printf.sprintf "%-26s %6d %6d %8d %10d %12.1f%s" name (P.count cells)
      (List.length gates) d sum
      (float_of_int sum /. float_of_int (P.count cells))
      status
  in
  sweep [ (12, 5, 1); (16, 8, 2); (24, 10, 3); (32, 16, 4); (32, 8, 5) ]
    (fun (side, k, seed) ->
      gate_line ~name:(Printf.sprintf "grid %dx%d" side side) (Gen.grid side side) k
        seed)
  |> List.iter print_endline;
  sweep [ (150, 6, 7); (300, 9, 8) ] (fun (n, k, seed) ->
      gate_line
        ~name:(Printf.sprintf "apollonian %d" n)
        (Gen.apollonian ~seed n) k (seed + 1))
  |> List.iter print_endline;
  Printf.printf "Lemma 7 bound: s <= 36 d\n";
  subsection "Lemma 4 tie-in: peeling beta vs the 2s gate bound";
  sweep [ (16, 6, 10); (24, 8, 16); (32, 12, 24) ] (fun (side, kcells, kparts) ->
      let gp = Gen.grid side side in
      let cells = P.voronoi ~seed:11 gp.Gen.graph ~count:kcells in
      let parts = P.voronoi ~seed:23 gp.Gen.graph ~count:kparts in
      let gates = Core.Gate.build gp.Gen.graph ~coords:gp.Gen.coords ~cells in
      let s =
        float_of_int (Core.Gate.fence_total gates) /. float_of_int (P.count cells)
      in
      let r = Core.Assignment.assign ~cells ~parts in
      Printf.sprintf "grid %dx%d, %d cells, %d parts: beta=%d  2s=%.1f  (beta <= 2s: %b)"
        side side (P.count cells) (P.count parts) r.Core.Assignment.beta (2.0 *. s)
        (float_of_int r.Core.Assignment.beta <= 2.0 *. s))
  |> List.iter print_endline

(* ------------------------------------------------------------------ *)
(* F7: Figure 7 — planarizing a torus by cutting generators            *)
(* ------------------------------------------------------------------ *)

let f7 () =
  section "F7 (Figure 7): cutting a torus grid along its generating cycles";
  Printf.printf "%-14s %6s %6s | %6s %6s %10s %8s\n" "torus" "n" "m" "cut" "n'"
    "duplicates" "planar";
  sweep [ (5, 5); (8, 6); (10, 10); (16, 12) ] (fun (w, h) ->
      let emb = Core.Embedding.torus_grid w h in
      let g = emb.Core.Embedding.graph in
      let tree = Sp.bfs_tree g 0 in
      let pg, proj, gens = Core.Embedding.planarize emb tree in
      let dup = G.n pg - G.n g in
      ignore proj;
      Printf.sprintf "%-14s %6d %6d | %6d %6d %10d %8b"
        (Printf.sprintf "%dx%d" w h)
        (G.n g) (G.m g) gens (G.n pg) dup
        (Core.Planarity.is_planar pg))
  |> List.iter print_endline;
  Printf.printf "genus check: every torus embedding above reports genus %d\n"
    (Core.Embedding.genus (Core.Embedding.torus_grid 6 6))

(* ------------------------------------------------------------------ *)
(* R1: robustness — deterministic fault injection, drop-rate sweep     *)
(* ------------------------------------------------------------------ *)

let r1 () =
  section "R1 (robustness): deterministic fault injection, drop-rate sweep";
  Printf.printf
    "resilient (stop-and-wait ack/retry) BFS under i.i.d. message drops vs the\n\
     clean run of the same algorithm: round inflation is the price of\n\
     retransmission, success means every node got its exact clean distance\n\
     (4 fault seeds per cell; dropped/retried are totals over the seeds)\n";
  let drops = [ 0.0; 0.01; 0.05 ] in
  let fault_seeds = [ 101; 211; 307; 401 ] in
  let families = [ ("torus 16x16", `Torus); ("apollonian 400", `Ap) ] in
  let graph_of = function
    | `Torus -> Gen.torus_grid 16 16
    | `Ap -> (Gen.apollonian ~seed:9 400).Gen.graph
  in
  let cells =
    List.concat_map (fun fam -> List.map (fun d -> (fam, d)) drops) families
  in
  Printf.printf "%-16s %5s | %6s %8s %9s | %8s %8s | %s\n" "network" "drop"
    "clean" "faulty" "inflation" "dropped" "retried" "success";
  sweep cells (fun ((name, which), drop) ->
      let g = graph_of which in
      let clean = Core.Resilient.bfs g ~root:0 in
      let runs =
        List.map
          (fun seed ->
            let faults =
              if drop = 0.0 then Core.Faults.none else Core.Faults.make ~drop seed
            in
            Core.Resilient.bfs ~faults g ~root:0)
          fault_seeds
      in
      let k = List.length runs in
      let sum f = List.fold_left (fun a r -> a + f r) 0 runs in
      let clean_rounds = clean.Core.Resilient.stats.Core.Network.rounds in
      let faulty_rounds =
        float_of_int (sum (fun r -> r.Core.Resilient.stats.Core.Network.rounds))
        /. float_of_int k
      in
      let inflation = faulty_rounds /. float_of_int clean_rounds in
      let dropped = sum (fun r -> r.Core.Resilient.stats.Core.Network.dropped) in
      let retried = sum (fun r -> r.Core.Resilient.stats.Core.Network.retried) in
      let successes = sum (fun r -> if r.Core.Resilient.success then 1 else 0) in
      let line =
        Printf.sprintf "%-16s %5.2f | %6d %8.1f %8.2fx | %8d %8d | %d/%d" name
          drop clean_rounds faulty_rounds inflation dropped retried successes k
      in
      let fields =
        [
          ("network", Obs.Sink.String name);
          ("drop", Obs.Sink.Float drop);
          ("seeds", Obs.Sink.Int k);
          ("clean_rounds", Obs.Sink.Int clean_rounds);
          ("faulty_rounds_mean", Obs.Sink.Float faulty_rounds);
          ("round_inflation", Obs.Sink.Float inflation);
          ("dropped", Obs.Sink.Int dropped);
          ("retried", Obs.Sink.Int retried);
          ("successes", Obs.Sink.Int successes);
        ]
      in
      (fields, line))
  |> List.iter (fun (fields, line) ->
         record ~type_:"robustness" fields;
         print_endline line);
  subsection "unprotected BFS under the same drops (graceful degradation)";
  Printf.printf
    "no retry layer: a dropped frontier message silently loses a subtree;\n\
     the degradation report measures the damage against the offline reference\n";
  sweep
    (List.concat_map
       (fun fam -> List.map (fun d -> (fam, d)) [ 0.01; 0.05; 0.2; 0.4 ])
       families)
    (fun ((name, which), drop) ->
      let g = graph_of which in
      let reference = Core.Resilient.reference_dists g ~root:0 in
      let faults = Core.Faults.make ~drop 101 in
      let dist, stats = Core.Dist_bfs.run ~faults g ~root:0 in
      let observed = Array.map (fun s -> s.Core.Dist_bfs.dist) dist in
      let d = Core.Degrade.int_dists ~reference ~observed () in
      Printf.sprintf
        "%-16s %5.2f | converged=%b unreached=%3d wrong=%3d max_err=%4.1f mean_err=%.3f"
        name drop stats.Core.Network.converged d.Core.Degrade.unreached
        d.Core.Degrade.wrong d.Core.Degrade.max_err d.Core.Degrade.mean_err)
  |> List.iter print_endline;
  subsection "bounded delivery delay (plain BFS; nothing lost, but skew reorders)";
  Printf.printf
    "delay never loses a message, yet announce-once BFS keeps a stale distance\n\
     when the short path's announcement is skewed past a longer path's: exact\n\
     survives a 1-round skew here but not more\n";
  sweep
    (List.concat_map
       (fun fam -> List.map (fun md -> (fam, md)) [ 1; 2; 4 ])
       families)
    (fun ((name, which), max_delay) ->
      let g = graph_of which in
      let reference = Core.Resilient.reference_dists g ~root:0 in
      let clean_rounds =
        (snd (Core.Dist_bfs.run g ~root:0)).Core.Network.rounds
      in
      let faults = Core.Faults.make ~delay:0.3 ~max_delay 101 in
      let dist, stats = Core.Dist_bfs.run ~faults g ~root:0 in
      let observed = Array.map (fun s -> s.Core.Dist_bfs.dist) dist in
      let d = Core.Degrade.int_dists ~reference ~observed () in
      Printf.sprintf
        "%-16s delay p=0.3 max=%d | rounds %3d -> %3d | delayed %4d | exact=%b"
        name max_delay clean_rounds stats.Core.Network.rounds
        stats.Core.Network.delayed (Core.Degrade.exact d))
  |> List.iter print_endline;
  subsection "fail-stop crashes (plain BFS on the surviving component)";
  Printf.printf
    "degradation vs the intact-graph reference with the crashed node excluded:\n\
     wrong/max_err is the stretch of routing around the dead node\n";
  sweep
    [
      ("torus 16x16", `Torus, 17, 2);
      ("torus 16x16", `Torus, 1, 1);
      ("apollonian 400", `Ap, 7, 3);
    ]
    (fun (name, which, node, at_round) ->
      let g = graph_of which in
      let reference = Core.Resilient.reference_dists g ~root:0 in
      let faults = Core.Faults.make ~crashes:[ { Core.Faults.node; at_round } ] 7 in
      let dist, stats = Core.Dist_bfs.run ~faults g ~root:0 in
      let observed = Array.map (fun s -> s.Core.Dist_bfs.dist) dist in
      let d = Core.Degrade.int_dists ~ignore:[| node |] ~reference ~observed () in
      Printf.sprintf
        "%-16s crash %3d@r%d | converged=%b compared=%3d unreached=%3d wrong=%3d \
         max_err=%4.1f"
        name node at_round stats.Core.Network.converged d.Core.Degrade.compared
        d.Core.Degrade.unreached d.Core.Degrade.wrong d.Core.Degrade.max_err)
  |> List.iter print_endline;
  subsection "best-effort MST under drops (weight gap vs the clean run)";
  Printf.printf
    "strict checking off: phases proceed with whatever minima survived; the\n\
     weight gap measures how far the surviving forest is from the true MST\n\
     (path redundancy inside parts makes the min-flood hard to corrupt: drops\n\
     stretch or shrink the aggregation but rarely change its fixpoint)\n";
  sweep
    (List.concat_map
       (fun (name, which) ->
         List.map (fun d -> (name, which, d)) [ 0.05; 0.15; 0.35 ])
       [ ("grid 8x8", `Grid8); ("apollonian 200", `Ap200) ])
    (fun (name, which, drop) ->
      let g =
        match which with
        | `Grid8 -> (Gen.grid 8 8).Gen.graph
        | `Ap200 -> (Gen.apollonian ~seed:5 200).Gen.graph
      in
      let w = G.random_weights ~state:(Random.State.make [| 77 |]) g in
      let clean = Core.Mst.boruvka ~constructor:Core.Mst.shortcut_constructor g w in
      let faults = Core.Faults.make ~drop 101 in
      let r =
        Core.Mst.boruvka ~constructor:Core.Mst.shortcut_constructor ~faults
          ~strict:false g w
      in
      let gap =
        Core.Degrade.weight_gap ~reference:clean.Core.Mst.mst_weight
          ~observed:r.Core.Mst.mst_weight
      in
      Printf.sprintf
        "%-16s %5.2f | rounds %5d -> %5d | edges %3d/%3d | weight gap %+.4f" name
        drop clean.Core.Mst.rounds r.Core.Mst.rounds
        (List.length r.Core.Mst.mst_edges)
        (List.length clean.Core.Mst.mst_edges)
        gap)
  |> List.iter print_endline

(* ------------------------------------------------------------------ *)

(* process CPU time (user + system, all domains) in ms.  Less noisy than
   wall clock on a shared machine, though memory-bound experiments still
   wobble with co-tenant bandwidth contention — the ledger's time bounds
   (Obs.Ledger) are sized to that residual noise. *)
let cpu_ms_now () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime) *. 1000.0

(* the ledger's top-level "scale" section: per-family build/BFS/MST wall
   plus cpu, minor words and peak RSS for the S1 run, filled when S1
   runs; Null when it didn't, and bench_diff gates the section only when
   both entries carry it (mirrors the serve section) *)
let scale_section : Obs.Sink.json ref = ref Obs.Sink.Null

let s1 () =
  section "S1 (scale): million-node substrate, CSR build + BFS + MST";
  Printf.printf
    "the CSR core at n >= 10^6 on one structured and one power-law family:\n\
     build the graph, BFS from vertex 0, then a Boruvka MST over seeded\n\
     random weights: the forest is Kruskal's under (weight, edge id) order\n\
     (a spanning forest when the family is disconnected).  Build, BFS and\n\
     MST wall times plus peak RSS land in the ledger entry and the JSONL\n\
     scale events; stdout stays deterministic\n";
  let families =
    [ ("grid-1024x1024", `Grid (1024, 1024)); ("rmat-s20-ef8", `Rmat (20, 8)) ]
  in
  Printf.printf "%-16s %9s %9s | %5s %9s | %9s %14s\n" "family" "n" "m" "ecc"
    "reached" "mst edges" "mst weight";
  let scale_families = ref [] in
  List.iter
    (fun (name, which) ->
      let cpu0 = cpu_ms_now () in
      let words0 = Gc.minor_words () in
      let t0 = Obs.Clock.now_ns () in
      let g =
        Obs.Span.with_ "s1.build" (fun () ->
            match which with
            | `Grid (w, h) ->
                (* streamed straight into the CSR builder: no list or
                   coords intermediary at the million-vertex scale *)
                let b = G.Builder.create ~edges_hint:(2 * w * h) (w * h) in
                for y = 0 to h - 1 do
                  for x = 0 to w - 1 do
                    let v = (y * w) + x in
                    if x + 1 < w then G.Builder.add_edge b v (v + 1);
                    if y + 1 < h then G.Builder.add_edge b v (v + w)
                  done
                done;
                G.Builder.build b
            | `Rmat (scale, edge_factor) -> Gen.rmat ~seed:7 ~scale ~edge_factor ())
      in
      let build_ms = Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) t0) in
      let t1 = Obs.Clock.now_ns () in
      let dist = Obs.Span.with_ "s1.bfs" (fun () -> Core.Traversal.bfs g 0) in
      let bfs_ms = Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) t1) in
      let ecc = Array.fold_left max 0 dist in
      let reached =
        Array.fold_left (fun a d -> if d >= 0 then a + 1 else a) 0 dist
      in
      let w = G.random_weights g in
      let t2 = Obs.Clock.now_ns () in
      (* Boruvka and Kruskal return the identical unique forest under
         (weight, edge id) order — the strategy swap is a stdout no-op *)
      let mst =
        Obs.Span.with_ "s1.mst" (fun () -> Sp.mst ~strategy:Sp.Boruvka g w)
      in
      let mst_ms = Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) t2) in
      let mst_weight = Sp.total_weight w mst in
      let rss_kb = Option.value (Obs.Rusage.max_rss_kb ()) ~default:0 in
      let cpu_ms = cpu_ms_now () -. cpu0 in
      let minor_words = Gc.minor_words () -. words0 in
      Printf.printf "%-16s %9d %9d | %5d %9d | %9d %14.2f\n" name (G.n g)
        (G.m g) ecc reached (List.length mst) mst_weight;
      let fields =
        [
          ("family", Obs.Sink.String name);
          ("n", Obs.Sink.Int (G.n g));
          ("m", Obs.Sink.Int (G.m g));
          ("eccentricity", Obs.Sink.Int ecc);
          ("reached", Obs.Sink.Int reached);
          ("mst_edges", Obs.Sink.Int (List.length mst));
          ("mst_weight", Obs.Sink.Float mst_weight);
          ("mst_strategy", Obs.Sink.String "boruvka");
          ("build_ms", Obs.Sink.Float build_ms);
          ("bfs_ms", Obs.Sink.Float bfs_ms);
          ("mst_ms", Obs.Sink.Float mst_ms);
          ("cpu_ms", Obs.Sink.Float cpu_ms);
          ("minor_words", Obs.Sink.Float minor_words);
          ("max_rss_kb", Obs.Sink.Int rss_kb);
        ]
      in
      record ~type_:"scale" fields;
      scale_families := Obs.Sink.Obj fields :: !scale_families)
    families;
  scale_section :=
    Obs.Sink.Obj
      [
        ("mst_strategy", Obs.Sink.String "boruvka");
        ("families", Obs.Sink.List (List.rev !scale_families));
      ]

(* ------------------------------------------------------------------ *)
(* SV1: shortcut-as-a-service — batched query serving, open-loop load  *)
(* ------------------------------------------------------------------ *)

(* the ledger's top-level "serve" section (qps, latency quantiles, reject
   and cache-hit rates), filled when SV1 runs; Null when it didn't, and
   bench_diff skips the serve gate unless both entries carry the section *)
let serve_section : Obs.Sink.json ref = ref Obs.Sink.Null

let sv1 () =
  section "SV1 (serve): batched query serving under open-loop Poisson load";
  let fleet = W.default_fleet in
  let rate = 400.0 and queries = 160 and seed = 11 in
  let cfg = Sv.default_config in
  let events = L.schedule ~rate ~queries ~seed ~fleet in
  Printf.printf
    "fleet of %d graphs x 4 CONGEST primitives; %d queries at %.0f qps\n\
     target (Poisson arrivals, seed %d); admission depth %d, batch cap %d.\n\
     Latency and throughput are timing — they live in the breakdown block,\n\
     the JSONL serve events and the ledger serve section, never here.\n"
    (Array.length fleet) queries rate seed cfg.Sv.queue_depth cfg.Sv.batch_max;
  subsection "schedule composition (deterministic)";
  Printf.printf "%-18s %5s %5s %5s %7s | %5s\n" "graph" "bfs" "sssp" "mst"
    "mincut" "total";
  Array.iter
    (fun spec ->
      let count k =
        List.length
          (List.filter
             (fun (e : L.event) ->
               e.L.query.W.spec = spec && e.L.query.W.kind = k)
             events)
      in
      let b = count W.Bfs and s = count W.Sssp in
      let m = count W.Mst and c = count W.Mincut in
      Printf.printf "%-18s %5d %5d %5d %7d | %5d\n" (W.spec_name spec) b s m
        c (b + s + m + c))
    fleet;
  let run_load p =
    let server = Sv.create ~config:cfg p in
    (* cold: construction caches dropped and the heap collected first, so
       the quantiles time serving, not the reclamation of earlier
       experiments' garbage (S1 leaves ~0.8 GB to free); warm: the
       identical schedule replayed against a hot cache *)
    Memo.clear ();
    Gc.full_major ();
    let cold, _ = L.run_phase ~name:"cold" ~server ~events in
    let warm, _ = L.run_phase ~name:"warm" ~server ~events in
    (server, cold, warm)
  in
  let server, cold, warm =
    match !pool with
    | Some p -> run_load p
    | None -> Exec.Pool.with_pool ~jobs:1 run_load
  in
  subsection "served totals (deterministic: drain at the batch cap keeps \
              the queue under the admission bound, so nothing is shed)";
  Printf.printf "cold: submitted %d -> completed %d, rejected %d\n"
    cold.L.submitted cold.L.completed cold.L.rejected;
  Printf.printf "%-8s %8s %10s %14s\n" "kind" "queries" "rounds" "value";
  List.iter
    (fun (k, q, r, v) -> Printf.printf "%-8s %8d %10d %14.3f\n" k q r v)
    cold.L.per_kind;
  Printf.printf "warm phase serves the identical schedule: results match = %b\n"
    (cold.L.per_kind = warm.L.per_kind && warm.L.rejected = 0);
  subsection "backpressure (deterministic: a full queue sheds immediately)";
  let tiny =
    match !pool with
    | Some p -> Sv.create ~config:{ Sv.queue_depth = 8; batch_max = 32 } p
    | None -> assert false (* bench always runs experiments under a pool *)
  in
  let demo = { W.spec = W.Grid (12, 12); kind = W.Bfs; qseed = 0 } in
  let accepted = ref 0 and rejected = ref 0 in
  for _ = 1 to 12 do
    match Sv.submit tiny demo with
    | Sv.Accepted _ -> incr accepted
    | Sv.Rejected -> incr rejected
  done;
  let served = Sv.drain tiny in
  Printf.printf
    "submitted 12 to a depth-8 queue without draining: accepted %d, shed %d\n\
     (counted in serve.rejected); draining then served %d, seq order = %b\n"
    !accepted !rejected (List.length served)
    (List.mapi (fun i c -> c.Sv.seq = i) served |> List.for_all Fun.id);
  if not !no_breakdown then begin
    Printf.printf "\n-- serve load results (timing; excluded from byte-diff) --\n";
    List.iter
      (fun (ph : L.phase_stats) ->
        Printf.printf
          "%-5s %4d q in %8.1f ms  qps %7.1f  p50 %7.2f ms  p95 %7.2f  p99 \
           %7.2f  max %7.2f  cache %3.0f%%  steals %d  hwm %d\n"
          ph.L.phase ph.L.completed ph.L.wall_ms ph.L.qps ph.L.p50_ms
          ph.L.p95_ms ph.L.p99_ms ph.L.max_ms
          (100.0 *. ph.L.cache_hit_rate)
          ph.L.steals ph.L.queue_hwm)
      [ cold; warm ]
  end;
  let st = Sv.stats server in
  let submitted = cold.L.submitted + warm.L.submitted in
  serve_section :=
    Obs.Sink.Obj
      [
        ("queries", Obs.Sink.Int st.Sv.completed);
        (* headline metrics from the warm (steady-state, cache-hot) phase;
           the full per-phase breakdown rides along underneath *)
        ("qps", Obs.Sink.Float warm.L.qps);
        ("p50_ms", Obs.Sink.Float warm.L.p50_ms);
        ("p99_ms", Obs.Sink.Float warm.L.p99_ms);
        ( "reject_rate",
          Obs.Sink.Float
            (if submitted > 0 then
               float_of_int st.Sv.rejected /. float_of_int submitted
             else 0.0) );
        ("cache_hit_rate", Obs.Sink.Float warm.L.cache_hit_rate);
        ("queue_hwm", Obs.Sink.Int st.Sv.queue_hwm);
        ("steals", Obs.Sink.Int (cold.L.steals + warm.L.steals));
        ("phases", Obs.Sink.List [ L.phase_json cold; L.phase_json warm ]);
      ]

(* ------------------------------------------------------------------ *)
(* AS1: asynchronous executor — rounds vs simulated time               *)
(* ------------------------------------------------------------------ *)

module Lat = Core.Latency
module Synch = Core.Synchronizer
module Nat = Core.Asynch.Native

(* the ledger's top-level "asynch" section: per-cell rounds / simulated
   time / message counts for the latency-model sweep (all deterministic,
   gated tight by bench_diff) plus the sweep's wall time (gated loose);
   Null when AS1 didn't run *)
let asynch_section : Obs.Sink.json ref = ref Obs.Sink.Null

let as1 () =
  section "AS1 (asynch): rounds vs simulated time under latency models";
  Printf.printf
    "every cell runs the unmodified synchronous algorithm on the\n\
     event-driven fabric behind an alpha-synchronizer, under four latency\n\
     distributions normalized to mean 1 (pareto: alpha 2, infinite\n\
     variance).  Simulated time is a pure function of (graph, algorithm,\n\
     latency seed), so the table is byte-deterministic; time/round > 1\n\
     is the price of lock-step, ctrl/data is the synchronizer's message\n\
     overhead (acks + safes per algorithm message).\n";
  let t0 = Obs.Clock.now_ns () in
  let families =
    [
      ("grid-16x16", (Gen.grid 16 16).Gen.graph);
      ("torus-12x12", Gen.torus_grid 12 12);
      ("apollonian-150", (Gen.apollonian ~seed:3 150).Gen.graph);
    ]
  in
  let models =
    [
      ("const", Lat.Constant 1.0);
      ("uniform", Lat.Uniform (0.5, 1.5));
      ("exp", Lat.Exponential 1.0);
      ("pareto", Lat.Pareto { alpha = 2.0; xmin = 0.5 });
    ]
  in
  let rows = ref [] in
  subsection "BFS under the alpha-synchronizer (sim time in latency units)";
  Printf.printf "%-15s %-8s %7s %10s %8s %9s %9s %10s %7s %6s\n" "family"
    "model" "rounds" "sim_time" "t/round" "data_msg" "ctrl_msg" "ctrl/data"
    "events" "q_hwm";
  List.iter
    (fun (fam, g) ->
      List.iter
        (fun (mname, model) ->
          let spec = Lat.make ~seed:11 model in
          (* one showcase cell keeps its per-wave timeline: the source of
             the simulated-time counter lanes in the Chrome export *)
          let timeline = fam = "grid-16x16" && mname = "exp" in
          let label = fam ^ "/bfs" in
          let _, summary =
            Synch.with_substrate ~timeline ~spec (fun () ->
                Core.Dist_bfs.run g ~root:0)
          in
          Synch.observe ~label ~spec summary;
          let fields =
            ("family", Obs.Sink.String fam)
            :: ("algo", Obs.Sink.String "bfs")
            :: Synch.summary_fields ~label ~spec summary
          in
          record ~type_:"asynch" fields;
          rows := Obs.Sink.Obj fields :: !rows;
          let open Synch in
          Printf.printf
            "%-15s %-8s %7d %10.3f %8.3f %9d %9d %10.2f %7d %6d\n" fam mname
            summary.pulses summary.sim_time
            (summary.sim_time /. float_of_int (max 1 summary.pulses))
            summary.data_msgs summary.ctrl_msgs
            (float_of_int summary.ctrl_msgs
            /. float_of_int (max 1 summary.data_msgs))
            summary.events summary.queue_hwm)
        models)
    families;
  subsection
    "cost of synchrony: native event-driven vs synchronized (same fabric)";
  Printf.printf "%-22s %-8s %12s %12s %9s\n" "algorithm" "model" "sync_time"
    "native_time" "overhead";
  let native_rows = ref [] in
  let native_cell name model ~sync_time ~native:(rep : Nat.report) =
    let fields =
      [
        ("label", Obs.Sink.String name);
        ("model", Obs.Sink.String model);
        ("sync_time", Obs.Sink.Float sync_time);
        ("sim_time", Obs.Sink.Float rep.Nat.sim_time);
        ("msgs", Obs.Sink.Int rep.Nat.msgs);
        ("events", Obs.Sink.Int rep.Nat.events);
        ("queue_hwm", Obs.Sink.Int rep.Nat.queue_hwm);
      ]
    in
    record ~type_:"asynch_native" fields;
    native_rows := Obs.Sink.Obj fields :: !native_rows;
    Printf.printf "%-22s %-8s %12.3f %12.3f %8.2fx\n" name model sync_time
      rep.Nat.sim_time
      (sync_time /. Float.max rep.Nat.sim_time 1e-9)
  in
  let g16 = (Gen.grid 16 16).Gen.graph in
  List.iter
    (fun (mname, model) ->
      let spec = Lat.make ~seed:11 model in
      let _, summary =
        Synch.with_substrate ~spec (fun () -> Core.Dist_bfs.run g16 ~root:0)
      in
      let _, rep = Nat.run ~spec g16 (Nat.bfs ~root:0) in
      native_cell "bfs/grid-16x16" mname ~sync_time:summary.Synch.sim_time
        ~native:rep)
    models;
  let gt8 = Gen.torus_grid 8 8 in
  List.iter
    (fun (mname, model) ->
      let spec = Lat.make ~seed:11 model in
      let _, summary =
        Synch.with_substrate ~spec (fun () ->
            ignore (Core.Leader.elect gt8))
      in
      let _, rep = Nat.run ~spec gt8 Nat.leader in
      native_cell "leader/torus-8x8" mname ~sync_time:summary.Synch.sim_time
        ~native:rep)
    models;
  Printf.printf
    "\n\
     (native leader is flood-max to quiescence; the synchronized column\n\
     is the full elect + census pipeline, so the overhead compounds the\n\
     synchronizer tax with the algorithm's extra stages.)\n";
  let wall_ms = Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) t0) in
  asynch_section :=
    Obs.Sink.Obj
      [
        ("rows", Obs.Sink.List (List.rev !rows));
        ("native", Obs.Sink.List (List.rev !native_rows));
        ("wall_ms", Obs.Sink.Float wall_ms);
      ]

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("E1", "Theorem 4: planar shortcut quality", e1);
    ("E2", "Theorem 5: treewidth-k shortcut quality", e2);
    ("E3", "Theorem 7: clique-sum shortcuts + folding", e3);
    ("E4", "Theorem 8/9: almost-embeddable / apex shortcuts", e4);
    ("E5", "Theorem 6: excluded-minor main theorem", e5);
    ("E6", "Corollary 1: distributed MST round counts", e6);
    ("E7", "Corollary 1: approximate min-cut", e7);
    ("E8", "SHK+12 lower-bound family", e8);
    ("E9", "HIZ16a: distributed construction cost", e9);
    ("E10", "full distributed pipeline, per primitive", e10);
    ("A1", "ablations: policy, kappa curve, folding", a1);
    ("OP1", "open problem: block-congestion Pareto frontier", op1);
    ("F1", "Figure 1: apex / vortex / clique-sum", f1);
    ("F2", "Figures 2-3: global vs local shortcuts", f23);
    ("F4", "Figure 4: decomposition-tree folding", f4);
    ("F5", "Figures 5-6: combinatorial gates", f56);
    ("F7", "Figure 7: torus planarization", f7);
    ("R1", "robustness: deterministic fault injection", r1);
    ("S1", "scale: million-node CSR substrate (build/BFS/MST)", s1);
    ("SV1", "serve: batched query serving, open-loop load", sv1);
    ("AS1", "asynch: latency models, synchronizer overhead", as1);
  ]

(* run one experiment under a root span, then print its phase breakdown from
   the span aggregation table and push a per-experiment metrics snapshot.
   The breakdown rows are wall-clock times — the one nondeterministic part
   of stdout — so --no-breakdown (declared up top) suppresses them for
   byte-exact diffing. *)

(* --ledger FILE: append one schema-versioned entry per run to the bench
   ledger (BENCH_LEDGER.jsonl); --rev/--date stamp the entry (the Makefile
   passes the git rev).  An entry collects per-experiment wall time, span
   totals/self times and Gc.minor_words deltas, plus the steady-state
   CONGEST allocation probes; Obs.Ledger validates it before it is
   appended.  Alloc numbers live here and in the breakdown block, never
   in deterministic stdout. *)
let ledger_file = ref None
let ledger_rev = ref "local"
let ledger_date = ref None
let record_entries : Obs.Sink.json list ref = ref []
let recording () = !ledger_file <> None

(* BENCH_SYNTH_SLOWDOWN=0.25 stretches every experiment by +25% of its
   measured wall time (see burn_ms below) — the regression gate's
   self-test injects a slowdown this way without touching code *)
let synth_slowdown =
  match Sys.getenv_opt "BENCH_SYNTH_SLOWDOWN" with
  | Some s -> (
      match float_of_string_opt s with Some f when f > 0.0 -> f | _ -> 0.0)
  | None -> 0.0

(* burn roughly [ms] the way a real regression would: extra CPU work
   (arithmetic, not sleep — sleep would evade the CPU metrics) *and*
   extra minor-heap allocation at a rate comparable to the experiments'
   own (~10^5 words/ms).  The allocation is the part the gate can never
   miss: experiment minor_words deltas are deterministic, so the injected
   words trip the tight minor_words bound even when run-to-run machine
   noise absorbs the extra time.  Runs inside the experiment's GC window;
   clean runs never call this. *)
let burn_ms ms =
  let stop = Int64.add (Obs.Clock.now_ns ()) (Int64.of_float (ms *. 1e6)) in
  let x = ref 1 in
  while Obs.Clock.now_ns () < stop do
    for _ = 1 to 0x8000 do
      x := !x * 48271 land 0x3FFFFFFF
    done;
    for _ = 1 to 0x800 do
      x := !x + Array.length (Sys.opaque_identity (Array.make 8 0))
    done
  done;
  ignore (Sys.opaque_identity !x)

(* time a fixed amount of the same arithmetic kernel.  The machine's
   effective speed (frequency scaling, co-tenant contention) drifts several
   percent between ledger runs and moves CPU time and wall time alike;
   this fixed-work spin measures that speed, and bench_diff divides the
   time metrics of both entries by their calibration before comparing, so
   uniform machine drift cancels while an injected (deadline-based) or
   real slowdown does not. *)
let calibrate_cpu_ms () =
  let x = ref 1 in
  let c0 = cpu_ms_now () in
  for _ = 1 to 0x4000 do
    for _ = 1 to 0x10000 do
      x := !x * 48271 land 0x3FFFFFFF
    done
  done;
  ignore (Sys.opaque_identity !x);
  cpu_ms_now () -. c0

let span_stats_json () =
  Obs.Sink.List
    (List.map
       (fun (s : Obs.Span.stat) ->
         Obs.Sink.Obj
           [
             ("path", Obs.Sink.String s.Obs.Span.path);
             ("calls", Obs.Sink.Int s.Obs.Span.calls);
             ("total_ms", Obs.Sink.Float (Obs.Clock.ns_to_ms s.Obs.Span.total_ns));
             ("self_ms", Obs.Sink.Float (Obs.Clock.ns_to_ms s.Obs.Span.self_ns));
             ( "minor_words",
               Obs.Sink.Int (int_of_float s.Obs.Span.minor_words) );
             ( "self_minor_words",
               Obs.Sink.Int (int_of_float s.Obs.Span.self_minor_words) );
           ])
       (Obs.Span.stats ()))

let run_experiment id run =
  Obs.Span.reset ();
  Obs.Metrics.reset ();
  reset_congestion ();
  let cache0 = Memo.stats () in
  let words0 = Gc.minor_words () in
  let gc0 = Obs.Gcstat.take () in
  let cpu0 = cpu_ms_now () in
  let t0 = Obs.Clock.now_ns () in
  Obs.Span.with_ id run;
  if synth_slowdown > 0.0 then
    burn_ms
      (synth_slowdown *. Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) t0));
  let wall_ms = Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) t0) in
  let cpu_ms = cpu_ms_now () -. cpu0 in
  let gc_delta = Obs.Gcstat.delta ~before:gc0 ~after:(Obs.Gcstat.take ()) in
  let minor_words = Gc.minor_words () -. words0 in
  let cache1 = Memo.stats () in
  let hits = cache1.Memo.hits - cache0.Memo.hits in
  let misses = cache1.Memo.misses - cache0.Memo.misses in
  let hit_rate =
    if hits + misses = 0 then 0.0
    else float_of_int hits /. float_of_int (hits + misses)
  in
  if not !no_breakdown then begin
    let table =
      Obs.Span.render_table ~min_ms:0.01 ~alloc:(Obs.Gcstat.enabled ()) ()
    in
    if table <> "" then begin
      Printf.printf "\n-- %s timing breakdown --\n" id;
      print_string table;
      Printf.printf "minor-heap alloc: %.0f words\n" minor_words;
      if hits + misses > 0 then
        Printf.printf "memo cache: %d hits / %d misses (%.0f%% hit rate)\n"
          hits misses (100.0 *. hit_rate)
    end
  end;
  if recording () then begin
    (* fault-summary block: the faults.* counters the engine bumps on every
       faulty Network.run, as accumulated since the Metrics.reset above —
       all zero for experiments that never pass a fault plan *)
    let fc name = Obs.Metrics.count (Obs.Metrics.counter ("faults." ^ name)) in
    record_entries :=
      Obs.Sink.Obj
        [
          ("id", Obs.Sink.String id);
          ("wall_ms", Obs.Sink.Float wall_ms);
          ("cpu_ms", Obs.Sink.Float cpu_ms);
          ("minor_words", Obs.Sink.Float minor_words);
          ("gc", Obs.Gcstat.json gc_delta);
          ("congestion", congestion_json ());
          ("cache_hits", Obs.Sink.Int hits);
          ("cache_misses", Obs.Sink.Int misses);
          ("cache_hit_rate", Obs.Sink.Float hit_rate);
          ( "faults",
            Obs.Sink.Obj
              [
                ("runs", Obs.Sink.Int (fc "runs"));
                ("dropped", Obs.Sink.Int (fc "dropped"));
                ("delayed", Obs.Sink.Int (fc "delayed"));
                ("retried", Obs.Sink.Int (fc "retried"));
                ("undelivered", Obs.Sink.Int (fc "undelivered"));
                ("crashed", Obs.Sink.Int (fc "crashed"));
              ] );
          ( "max_rss_kb",
            Obs.Sink.Int (Option.value (Obs.Rusage.max_rss_kb ()) ~default:0) );
          ( "vm_rss_kb",
            Obs.Sink.Int (Option.value (Obs.Rusage.current_rss_kb ()) ~default:0)
          );
          ("spans", span_stats_json ());
        ]
      :: !record_entries
  end;
  if Obs.Sink.enabled () then
    Obs.Metrics.emit ~extra:[ ("experiment", Obs.Sink.String id) ] ()

(* steady-state CONGEST allocation probes: minor words per simulated round
   for one aggregation on the largest E1 cell and one fully-simulated MST.
   The Gc window covers only the network runs (construction is outside), so
   the number tracks the engine's per-round allocation behaviour. *)
let alloc_probes () =
  let probe_agg () =
    let g = (Gen.grid 64 64).Gen.graph in
    let tree = Sp.bfs_tree g 0 in
    let parts = P.voronoi ~seed:64 g ~count:(max 2 (64 * 64 / 48)) in
    let sc = Core.Generic.construct tree parts in
    ignore (agg_rounds sc);
    (* warm-up: interning, first-touch tables *)
    let w0 = Gc.minor_words () in
    let rounds = agg_rounds sc in
    (Gc.minor_words () -. w0, rounds)
  in
  let probe_mst () =
    let g = (Gen.grid 32 32).Gen.graph in
    let w = G.random_weights ~state:(Random.State.make [| 32 |]) g in
    let w0 = Gc.minor_words () in
    let r = Core.Mst.boruvka_full ~constructor:Core.Mst.shortcut_constructor g w in
    (Gc.minor_words () -. w0, r.Core.Mst.rounds)
  in
  List.map
    (fun (name, probe) ->
      let words, rounds = probe () in
      let per_round = words /. float_of_int (max 1 rounds) in
      if not !no_breakdown then
        Printf.printf "%-26s %10.0f words / %5d rounds = %8.1f words/round\n" name
          words rounds per_round;
      Obs.Sink.Obj
        [
          ("name", Obs.Sink.String name);
          ("minor_words", Obs.Sink.Float words);
          ("rounds", Obs.Sink.Int rounds);
          ("words_per_round", Obs.Sink.Float per_round);
        ])
    [
      ("agg grid 64x64 voronoi", probe_agg); ("mst-full grid 32x32", probe_mst);
    ]

(* The command line: this one table drives both parsing and --help.  A
   flag with an argument name takes the next argument as its value. *)
let cli_flags =
  [
    ("--only", Some "ID", "run one experiment (ids: --list)");
    ("--list", None, "list the experiments and exit");
    ( "--jsonl",
      Some "FILE",
      "stream spans, metrics, rows and trace summaries as JSONL events" );
    ( "--full-trace",
      None,
      "include per-round series in trace events (needs --jsonl)" );
    ("--jobs", Some "N", "run sweep cells on N domains (same output as 1)");
    ( "--no-breakdown",
      None,
      "skip the span timing tables (the only nondeterministic stdout)" );
    ("--ledger", Some "FILE", "append one ledger entry for tools/bench_diff");
    ("--rev", Some "REV", "git rev stamped on the ledger entry (default local)");
    ("--date", Some "DATE", "date stamped on the ledger entry (default today)");
    ("--no-cache", None, "disable the memo cache (stdout must not change)");
  ]

let usage oc =
  output_string oc "usage: main.exe [FLAG]...\n";
  List.iter
    (fun (name, arg, doc) ->
      let lhs = match arg with Some a -> name ^ " " ^ a | None -> name in
      Printf.fprintf oc "  %-15s %s\n" lhs doc)
    (cli_flags @ [ ("--help", None, "print this message and exit") ]);
  output_string oc "With no flag, runs every experiment.\n"

(* [(flag, value)] in command-line order, [""] for a switch.  An unknown
   argument, or a value flag followed by nothing or by another flag, is a
   usage error: exit 2 before anything runs.  --help wins over both. *)
let parse_args args =
  if List.mem "--help" args then begin
    usage stdout;
    exit 0
  end;
  let fail msg =
    Printf.eprintf "bench: %s\n" msg;
    usage stderr;
    exit 2
  in
  let rec go acc = function
    | [] -> List.rev acc
    | flag :: rest -> (
        match List.find_opt (fun (name, _, _) -> name = flag) cli_flags with
        | None -> fail (Printf.sprintf "unknown argument %S" flag)
        | Some (_, None, _) -> go ((flag, "") :: acc) rest
        | Some (_, Some arg, _) -> (
            match rest with
            | v :: rest when not (String.starts_with ~prefix:"--" v) ->
                go ((flag, v) :: acc) rest
            | _ -> fail (Printf.sprintf "%s needs a value: %s %s" flag flag arg)))
  in
  go [] args

let () =
  let args = parse_args (List.tl (Array.to_list Sys.argv)) in
  let has flag = List.mem_assoc flag args in
  let value_of flag = List.assoc_opt flag args in
  let only = value_of "--only" in
  let jsonl_path = value_of "--jsonl" in
  ledger_file := value_of "--ledger";
  (match value_of "--rev" with Some r -> ledger_rev := r | None -> ());
  ledger_date := value_of "--date";
  let jobs =
    match value_of "--jobs" with
    | None -> 1
    | Some s -> (
        match int_of_string_opt s with
        | Some j when j >= 1 -> j
        | _ ->
            prerr_endline "bench: --jobs expects a positive integer";
            exit 2)
  in
  full_trace := has "--full-trace";
  no_breakdown := has "--no-breakdown";
  if has "--no-cache" then Memo.set_enabled false;
  (match only with
  | Some o when not (List.exists (fun (id, _, _) -> id = o) experiments) ->
      Printf.eprintf "bench: unknown experiment %S; valid ids: %s\n" o
        (String.concat " " (List.map (fun (id, _, _) -> id) experiments));
      exit 2
  | _ -> ());
  if has "--list" then
    List.iter (fun (id, desc, _) -> Printf.printf "%-4s %s\n" id desc) experiments
  else begin
    let sink = Option.map Obs.Sink.open_file jsonl_path in
    Option.iter Obs.Sink.install sink;
    Obs.Span.set_enabled true;
    Obs.Gcstat.set_enabled true;
    (* calibrate before the experiments so the speed estimate reflects the
       conditions the run is about to execute under; ledger entries only *)
    let calib_cpu_ms =
      if !ledger_file <> None then calibrate_cpu_ms () else 0.0
    in
    let record_t0 = Obs.Clock.now_ns () in
    let record_cpu0 = cpu_ms_now () in
    (* the pool is created after the sink is installed and spans enabled, so
       worker domains inherit both through the task-handoff ordering *)
    Exec.Pool.with_pool ~jobs (fun p ->
        pool := Some p;
        List.iter
          (fun (id, _, run) ->
            match only with Some o when o <> id -> () | _ -> run_experiment id run)
          experiments);
    pool := None;
    (* the comparable window for ledger entries: experiments only, before
       the probes add their own wall time *)
    let experiments_ms =
      Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) record_t0)
    in
    let experiments_cpu_ms = cpu_ms_now () -. record_cpu0 in
    let probes =
      if recording () then begin
        if not !no_breakdown then
          Printf.printf "\n-- steady-state CONGEST allocation probes --\n";
        alloc_probes ()
      end
      else []
    in
    (match !ledger_file with
    | Some path ->
        let date =
          match !ledger_date with
          | Some d -> d
          | None ->
              let tm = Unix.gmtime (Unix.time ()) in
              Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
                (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
        in
        let entry =
          Obs.Sink.Obj
            [
              ("schema", Obs.Sink.String Obs.Ledger.schema);
              ("rev", Obs.Sink.String !ledger_rev);
              ("date", Obs.Sink.String date);
              ("blessed", Obs.Sink.Bool false);
              ( "mode",
                Obs.Sink.Obj
                  [
                    ( "only",
                      match only with
                      | Some o -> Obs.Sink.String o
                      | None -> Obs.Sink.Null );
                    ("jobs", Obs.Sink.Int jobs);
                    ("cache", Obs.Sink.Bool (not (has "--no-cache")));
                    ( "synth_slowdown",
                      if synth_slowdown > 0.0 then Obs.Sink.Float synth_slowdown
                      else Obs.Sink.Null );
                  ] );
              ("total_ms", Obs.Sink.Float experiments_ms);
              ("total_cpu_ms", Obs.Sink.Float experiments_cpu_ms);
              ("calib_cpu_ms", Obs.Sink.Float calib_cpu_ms);
              ("experiments", Obs.Sink.List (List.rev !record_entries));
              ("alloc_probes", Obs.Sink.List probes);
              ("memo", Memo.stats_json ());
              ("serve", !serve_section);
              ("scale", !scale_section);
              ("asynch", !asynch_section);
            ]
        in
        (match Obs.Ledger.append path entry with
        | Ok () ->
            Printf.printf "appended ledger entry (rev %s, %s) to %s\n"
              !ledger_rev date path
        | Error problems ->
            List.iter (Printf.eprintf "bench: ledger entry: %s\n") problems;
            exit 2)
    | None -> ());
    (match (sink, jsonl_path) with
    | Some s, Some path ->
        let n = Obs.Sink.event_count s in
        Obs.Sink.close s;
        Printf.printf "wrote %d events to %s\n" n path
    | _ -> ());
    print_endline "\nall experiments completed."
  end
