(* End-to-end tests through the public facade: the calls a downstream user
   makes, on the graph families the paper is about. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_facade_shortcut () =
  let gp = Core.Generators.grid 10 10 in
  let parts = Core.Part.voronoi ~seed:1 gp.Core.Generators.graph ~count:8 in
  let b, c, q = Core.shortcut_quality gp.Core.Generators.graph ~parts in
  check "b positive" true (b >= 1);
  check "q = b*d + c relation plausible" true (q >= c && q >= b)

let test_facade_mst_planar () =
  let gp = Core.Generators.apollonian ~seed:3 120 in
  let g = gp.Core.Generators.graph in
  let w = Core.Graph.random_weights g in
  let edges, weight, rounds = Core.mst g w in
  check_int "spanning tree size" 119 (List.length edges);
  let reference = Core.Spanning.total_weight w (Core.Spanning.kruskal g w) in
  check "weight optimal" true (abs_float (weight -. reference) < 1e-9);
  check "rounds positive" true (rounds > 0)

let test_facade_mst_excluded_minor () =
  (* the headline pipeline: an L_k graph (clique-sum of almost-embeddable
     pieces), solved end-to-end *)
  let pieces =
    List.init 6 (fun i ->
        (Core.Almost_embeddable.make ~seed:i ~width:14 ~height:8 ~handles:0 ~vortices:0
           ~vortex_depth:1 ~vortex_nodes:1 ~apices:1 ~apex_fanout:5)
          .Core.Almost_embeddable.graph)
  in
  let cs = Core.Clique_sum.compose ~seed:2 ~k:3 ~shape:Core.Clique_sum.Random_tree pieces in
  check "decomposition valid" true (Core.Clique_sum.check cs = Ok ());
  let g = cs.Core.Clique_sum.graph in
  let w = Core.Graph.random_weights g in
  let _, weight, rounds = Core.mst g w in
  let reference = Core.Spanning.total_weight w (Core.Spanning.kruskal g w) in
  check "MST exact on L_k graph" true (abs_float (weight -. reference) < 1e-9);
  check "rounds positive" true (rounds > 0)

let test_facade_mincut () =
  let gp = Core.Generators.grid 8 8 in
  let g = gp.Core.Generators.graph in
  let w = Core.Graph.unit_weights g in
  let estimate, rounds = Core.mincut ~trees:6 g w in
  let exact = Core.Mincut.stoer_wagner g w in
  check "estimate sound" true (estimate >= exact -. 1e-9);
  check "estimate tight on grid" true (estimate <= (2.0 *. exact) +. 1e-9);
  check "rounds positive" true (rounds > 0)

let test_facade_cs_vs_generic_quality () =
  (* both certified and uniform constructions produce valid shortcuts whose
     aggregation converges; the generic one is never catastrophically worse *)
  let pieces = List.init 8 (fun i -> (Core.Generators.apollonian ~seed:(50 + i) 30).Core.Generators.graph) in
  let cs = Core.Clique_sum.compose ~seed:1 ~k:3 ~shape:Core.Clique_sum.Path pieces in
  let g = cs.Core.Clique_sum.graph in
  let tree = Core.Spanning.bfs_tree g 0 in
  let parts = Core.Part.voronoi ~seed:7 g ~count:10 in
  let sc_cert = Core.Cs_shortcut.construct cs tree parts in
  let sc_gen = Core.Generic.construct tree parts in
  let st = Random.State.make [| 3 |] in
  let values =
    Array.init (Core.Graph.n g) (fun v -> Some (Random.State.float st 1.0, v))
  in
  let r1 = Core.Aggregate.minimum sc_cert ~values in
  let r2 = Core.Aggregate.minimum sc_gen ~values in
  check "certified aggregation correct" true (Core.Aggregate.verify sc_cert ~values r1);
  check "generic aggregation correct" true (Core.Aggregate.verify sc_gen ~values r2)

let () =
  Alcotest.run "core"
    [
      ( "facade",
        [
          Alcotest.test_case "shortcut quality" `Quick test_facade_shortcut;
          Alcotest.test_case "MST on planar" `Quick test_facade_mst_planar;
          Alcotest.test_case "MST on excluded-minor L_k" `Quick
            test_facade_mst_excluded_minor;
          Alcotest.test_case "min-cut" `Quick test_facade_mincut;
          Alcotest.test_case "certified vs generic aggregation" `Quick
            test_facade_cs_vs_generic_quality;
        ] );
    ]
