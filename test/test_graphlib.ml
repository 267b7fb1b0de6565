(* Tests for the graph substrate: graphs, DSU, heap, traversals, distances,
   spanning trees, subgraphs and the generator zoo. *)

open Graphlib

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- Graph ---------- *)

let test_of_edges_dedup () =
  let g = Graph.of_edges 4 [ (0, 1); (1, 0); (1, 2); (2, 2); (2, 3) ] in
  check_int "self loops and duplicates removed" 3 (Graph.m g);
  check "adjacency symmetric" true (Graph.mem_edge g 1 0 && Graph.mem_edge g 0 1)

let test_graph_degree () =
  let g = Graph.of_edges 4 [ (0, 1); (0, 2); (0, 3) ] in
  check_int "star center degree" 3 (Graph.degree g 0);
  check_int "leaf degree" 1 (Graph.degree g 2)

let test_other_endpoint () =
  let g = Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  check_int "other endpoint" 1 (Graph.other_endpoint g 0 0);
  check_int "other endpoint reverse" 0 (Graph.other_endpoint g 0 1);
  Alcotest.check_raises "non-incident vertex rejected"
    (Invalid_argument "Graph.other_endpoint: vertex not on edge") (fun () ->
      ignore (Graph.other_endpoint g 0 2))

let test_complete () =
  let g = Graph.complete 6 in
  check_int "K6 edges" 15 (Graph.m g);
  check "all pairs adjacent" true
    (List.for_all
       (fun (u, v) -> Graph.mem_edge g u v)
       [ (0, 5); (2, 3); (1, 4) ])

let test_find_edge () =
  let g = Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  check "existing edge found" true (Graph.find_edge g 2 1 <> None);
  check "missing edge absent" true (Graph.find_edge g 0 2 = None)

let test_fold_edges () =
  let g = Generators.cycle 5 in
  let total = Graph.fold_edges g ~init:0 ~f:(fun acc _ _ _ -> acc + 1) in
  check_int "fold visits all edges" 5 total

let test_out_of_range () =
  Alcotest.check_raises "vertex out of range"
    (Invalid_argument "Graph.of_edges: vertex out of range") (fun () ->
      ignore (Graph.of_edges 2 [ (0, 2) ]))

(* ---------- Union_find ---------- *)

let test_uf_basic () =
  let uf = Union_find.create 5 in
  check "initially disjoint" false (Union_find.same uf 0 1);
  check "union returns true" true (Union_find.union uf 0 1);
  check "union again returns false" false (Union_find.union uf 1 0);
  check "now same" true (Union_find.same uf 0 1);
  check_int "sets count" 4 (Union_find.count uf);
  check_int "size" 2 (Union_find.size uf 0)

let test_uf_chain () =
  let n = 1000 in
  let uf = Union_find.create n in
  for i = 0 to n - 2 do
    ignore (Union_find.union uf i (i + 1))
  done;
  check_int "one set" 1 (Union_find.count uf);
  check "ends connected" true (Union_find.same uf 0 (n - 1));
  check_int "full size" n (Union_find.size uf 500)

(* ---------- Pqueue ---------- *)

let test_pq_order () =
  let q = Pqueue.create () in
  List.iter (fun x -> Pqueue.push q x x) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let out = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (p, _) ->
        out := p :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  check "sorted ascending" true (List.rev !out = [ 1.0; 2.0; 3.0; 4.0; 5.0 ])

let test_pq_peek_empty () =
  let q = Pqueue.create () in
  check "peek empty" true (Pqueue.peek q = None);
  check "pop empty" true (Pqueue.pop q = None);
  Pqueue.push q 1.0 "x";
  check "peek nondestructive" true (Pqueue.peek q = Some (1.0, "x"));
  check_int "size" 1 (Pqueue.size q)

let prop_pq_sorts =
  QCheck.Test.make ~name:"pqueue drains in sorted order" ~count:100
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun xs ->
      let q = Pqueue.create () in
      List.iter (fun x -> Pqueue.push q x ()) xs;
      let rec drain acc =
        match Pqueue.pop q with Some (p, ()) -> drain (p :: acc) | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare xs)

(* ---------- Traversal / Distance ---------- *)

let test_bfs_path () =
  let g = Generators.path 10 in
  let d = Traversal.bfs g 0 in
  check_int "end of path" 9 d.(9);
  check_int "start" 0 d.(0)

let test_bfs_matches_dijkstra_unit =
  QCheck.Test.make ~name:"BFS equals Dijkstra on unit weights" ~count:30
    QCheck.(int_range 5 60)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:n n 0.15 in
      let d_bfs = Traversal.bfs g 0 in
      let d_dij = Distance.dijkstra g (Graph.unit_weights g) 0 in
      Array.for_all
        (fun v ->
          if d_bfs.(v) < 0 then d_dij.(v) = infinity
          else abs_float (float_of_int d_bfs.(v) -. d_dij.(v)) < 1e-9)
        (Array.init n (fun i -> i)))

let test_components () =
  let g = Graph.of_edges 6 [ (0, 1); (1, 2); (3, 4) ] in
  let _, c = Traversal.components g in
  check_int "three components" 3 c;
  check "not connected" false (Traversal.is_connected g)

let test_connected_subset () =
  let g = Generators.cycle 8 in
  check "arc is connected" true (Traversal.is_connected_subset g [ 0; 1; 2; 3 ]);
  check "two arcs are not" false (Traversal.is_connected_subset g [ 0; 1; 4; 5 ]);
  check "empty is connected" true (Traversal.is_connected_subset g [])

let test_multi_source () =
  let g = Generators.path 10 in
  let owner, dist = Traversal.multi_source_bfs g [| 0; 9 |] in
  check_int "middle reached" 4 dist.(4);
  check_int "owner left" 0 owner.(2);
  check_int "owner right" 1 owner.(7)

let test_restricted_bfs () =
  let g = Generators.grid 5 5 in
  let allowed = Array.make 25 true in
  (* wall down the middle column x=2 *)
  for y = 0 to 4 do
    allowed.((y * 5) + 2) <- false
  done;
  let d = (Traversal.restricted_bfs (g : Generators.planar).graph ~allowed 0 : int array) in
  check "right side unreachable" true (d.(4) = -1);
  check "left side reachable" true (d.(21) >= 0)

let test_diameter_exact () =
  check_int "path diameter" 9 (Distance.diameter_exact (Generators.path 10));
  check_int "cycle diameter" 5 (Distance.diameter_exact (Generators.cycle 10));
  check_int "grid diameter" 8 (Distance.diameter_exact (Generators.grid 5 5).graph);
  check_int "complete diameter" 1 (Distance.diameter_exact (Graph.complete 7))

let test_double_sweep_on_tree () =
  let g = Generators.random_tree ~seed:7 200 in
  check_int "double sweep exact on trees" (Distance.diameter_exact g)
    (Distance.diameter_double_sweep g)

let test_radius_center () =
  let g = Generators.star 9 in
  let c, r = Distance.radius_center g in
  check_int "star center" 0 c;
  check_int "star radius" 1 r

(* ---------- Spanning ---------- *)

let test_bfs_tree_valid =
  QCheck.Test.make ~name:"BFS tree passes validity checker" ~count:30
    QCheck.(int_range 5 80)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(n + 13) n 0.2 in
      let t = Spanning.bfs_tree g 0 in
      Spanning.check t = Ok ())

let test_bfs_tree_height () =
  let gp = Generators.grid 6 6 in
  let t = Spanning.bfs_tree gp.graph 0 in
  check_int "corner BFS tree height" 10 (Spanning.height t);
  check_int "tree edges" 35 (List.length (Spanning.tree_edges t))

let test_tree_children_sizes () =
  let g = Generators.path 6 in
  let t = Spanning.bfs_tree g 0 in
  let sz = Spanning.subtree_sizes t in
  check_int "root subtree" 6 sz.(0);
  check_int "leaf subtree" 1 sz.(5);
  let kids = Spanning.children t in
  check_int "internal child count" 1 (Array.length kids.(2))

let test_path_to_root () =
  let g = Generators.path 5 in
  let t = Spanning.bfs_tree g 0 in
  check "path to root" true (Spanning.path_to_root t 4 = [ 4; 3; 2; 1; 0 ])

let test_kruskal_prim_agree =
  QCheck.Test.make ~name:"Kruskal and Prim agree on MST weight" ~count:30
    QCheck.(int_range 5 60)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(n * 3) n 0.25 in
      let w = Graph.random_weights ~state:(Random.State.make [| n |]) g in
      let wk = Spanning.total_weight w (Spanning.kruskal g w) in
      let wp = Spanning.total_weight w (Spanning.prim g w) in
      abs_float (wk -. wp) < 1e-9)

let test_mst_edge_count () =
  let g = Generators.erdos_renyi ~seed:4 40 0.3 in
  let w = Graph.random_weights g in
  check_int "MSF has n-1 edges when connected" 39
    (List.length (Spanning.kruskal g w))

let test_disconnected_bfs_tree () =
  let g = Graph.of_edges 4 [ (0, 1) ] in
  Alcotest.check_raises "disconnected graph rejected"
    (Invalid_argument "Spanning.bfs_tree: graph is not connected") (fun () ->
      ignore (Spanning.bfs_tree g 0))

(* ---------- Subgraph ---------- *)

let test_induced () =
  let g = Generators.cycle 6 in
  let m = Subgraph.induced g [ 0; 1; 2 ] in
  check_int "induced vertices" 3 (Graph.n m.Subgraph.sub);
  check_int "induced edges" 2 (Graph.m m.Subgraph.sub);
  check_int "mapping round trip" 1 m.Subgraph.to_sub.(m.Subgraph.to_host.(1))

let test_delete_vertices () =
  let g = Generators.wheel 8 in
  let m = Subgraph.delete_vertices g [ 7 ] in
  check_int "hub removed leaves cycle" 7 (Graph.n m.Subgraph.sub);
  check_int "cycle edges remain" 7 (Graph.m m.Subgraph.sub)

let test_delete_edges () =
  let g = Generators.cycle 5 in
  let g' = Subgraph.delete_edges g [ 0 ] in
  check_int "one edge fewer" 4 (Graph.m g');
  check "now a path" true (Traversal.is_connected g')

let test_quotient () =
  let g = Generators.path 6 in
  let cls = [| 0; 0; 0; 1; 1; 1 |] in
  let q, nq = Subgraph.quotient g cls in
  check_int "two classes" 2 nq;
  check_int "single crossing edge" 1 (Graph.m q)

let test_contract_edge () =
  let g = Generators.cycle 4 in
  let g' = Subgraph.contract_edge g 0 in
  check_int "one vertex fewer" 3 (Graph.n g');
  check_int "triangle after contraction" 3 (Graph.m g')

let prop_contract_keeps_connected =
  QCheck.Test.make ~name:"contraction preserves connectivity" ~count:30
    QCheck.(int_range 4 40)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(n + 99) n 0.3 in
      if Graph.m g = 0 then true
      else
        let g' = Subgraph.contract_edge g 0 in
        Traversal.is_connected g' = Traversal.is_connected g)

(* ---------- Generators ---------- *)

let test_grid_shape () =
  let gp = Generators.grid 7 3 in
  check_int "grid vertices" 21 (Graph.n gp.Generators.graph);
  check_int "grid edges" ((6 * 3) + (7 * 2)) (Graph.m gp.Generators.graph);
  check_int "outer face size" 16 (Array.length gp.Generators.outer_face)

let test_wheel_shape () =
  let g = Generators.wheel 9 in
  check_int "wheel edges" 16 (Graph.m g);
  check_int "hub degree" 8 (Graph.degree g 8);
  check_int "wheel diameter" 2 (Distance.diameter_exact g)

let test_cycle_apex_diameter_collapse () =
  (* the paper's §2.3.2 example: cycle diameter n/2, +apex -> diameter 2 *)
  let n = 64 in
  let c = Generators.cycle (n - 1) in
  let a = Generators.cycle_with_apex n in
  check_int "cycle diameter" 31 (Distance.diameter_exact c);
  check_int "apex collapses diameter" 2 (Distance.diameter_exact a)

let test_apollonian_properties =
  QCheck.Test.make ~name:"Apollonian networks are maximal planar" ~count:15
    QCheck.(int_range 4 120)
    (fun n ->
      let gp = Generators.apollonian ~seed:n n in
      let g = gp.Generators.graph in
      Graph.m g = (3 * n) - 6 && Traversal.is_connected g)

let test_series_parallel_connected =
  QCheck.Test.make ~name:"series-parallel graphs are connected" ~count:20
    QCheck.(int_range 2 150)
    (fun n ->
      let g = Generators.series_parallel ~seed:(n + 5) n in
      Graph.n g = n && Traversal.is_connected g)

let test_k_tree_shape =
  QCheck.Test.make ~name:"k-trees have the right edge count" ~count:15
    QCheck.(pair (int_range 1 5) (int_range 10 80))
    (fun (k, n) ->
      QCheck.assume (n > k + 1);
      let g, elim = Generators.k_tree ~seed:(n + k) ~k n in
      (* K_{k+1} plus k edges per later vertex *)
      Graph.m g = (k * (k + 1) / 2) + ((n - k - 1) * k)
      && Array.length elim = n && Traversal.is_connected g)

let test_torus_regular () =
  let g = Generators.torus_grid 5 4 in
  check_int "torus vertices" 20 (Graph.n g);
  check_int "torus edges" 40 (Graph.m g);
  check "4-regular" true
    (Array.for_all (fun v -> Graph.degree g v = 4) (Array.init 20 (fun i -> i)))

let test_lower_bound_family () =
  let g, starts = Generators.lower_bound 8 in
  check_int "n = p^2 + 2p - 1" ((8 * 8) + (2 * 8) - 1) (Graph.n g);
  check_int "p path starts" 8 (Array.length starts);
  check "connected" true (Traversal.is_connected g);
  (* diameter O(log p), far below the path length p *)
  check "small diameter" true (Distance.diameter_exact g <= 2 + (2 * 4))

let test_lower_bound_parts_are_paths () =
  let g, parts = Generators.lower_bound_parts 6 in
  check_int "six parts" 6 (List.length parts);
  List.iter
    (fun p -> check "path part connected" true (Traversal.is_connected_subset g p))
    parts

let test_add_apices () =
  let base = (Generators.grid 6 6).Generators.graph in
  let g = Generators.add_apices ~seed:3 base ~q:3 ~fanout:5 in
  check_int "three new vertices" 39 (Graph.n g);
  (* apices form a clique *)
  check "apex clique" true (Graph.mem_edge g 36 37 && Graph.mem_edge g 37 38);
  check "connected" true (Traversal.is_connected g)

let test_random_tree_is_tree =
  QCheck.Test.make ~name:"random trees are trees" ~count:25
    QCheck.(int_range 2 200)
    (fun n ->
      let g = Generators.random_tree ~seed:n n in
      Graph.m g = n - 1 && Traversal.is_connected g)

let test_erdos_renyi_connected =
  QCheck.Test.make ~name:"G(n,p) generator returns connected graphs" ~count:15
    QCheck.(int_range 5 80)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(2 * n) n 0.2 in
      Traversal.is_connected g)

let test_binary_tree () =
  let g = Generators.binary_tree 15 in
  check_int "edges" 14 (Graph.m g);
  check_int "depth" 3 (Traversal.bfs g 0).(14)

let test_petersen () =
  let g = Generators.petersen () in
  check_int "vertices" 10 (Graph.n g);
  check_int "edges" 15 (Graph.m g);
  check "3-regular" true
    (Array.for_all (fun v -> Graph.degree g v = 3) (Array.init 10 (fun i -> i)))

let test_complete_bipartite () =
  let g = Generators.complete_bipartite 3 4 in
  check_int "edges" 12 (Graph.m g);
  check_int "diameter" 2 (Distance.diameter_exact g)

(* ---------- Io ---------- *)

let test_io_roundtrip_unweighted =
  QCheck.Test.make ~name:"edge-list roundtrip preserves the graph" ~count:15
    QCheck.(int_range 3 60)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(41 * n) n 0.3 in
      let g', w' = Io.of_string (Io.to_string g) in
      w' = None && Graph.n g' = Graph.n g && Graph.m g' = Graph.m g
      && Graph.fold_edges g ~init:true ~f:(fun acc _ u v -> acc && Graph.mem_edge g' u v))

let test_io_roundtrip_weighted () =
  let g = Generators.cycle 6 in
  let w = Graph.random_weights g in
  let g', w' = Io.of_string (Io.to_string ~weights:w g) in
  check_int "same edges" 6 (Graph.m g');
  (match w' with
  | Some w' ->
      check "weights preserved" true
        (Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-9) w w')
  | None -> Alcotest.fail "weights lost")

let test_io_comments_and_errors () =
  let g, w = Io.of_string "# a comment\n2 1\n0 1\n" in
  check_int "parsed" 1 (Graph.m g);
  check "unweighted" true (w = None);
  (* every error names the 1-based line, comments and blanks counted *)
  let raises name msg input =
    Alcotest.check_raises name (Invalid_argument ("Io.of_string: " ^ msg))
      (fun () -> ignore (Io.of_string input))
  in
  raises "bad header" "line 1: bad header (expected \"n m\")" "nope\n";
  raises "non-integer header" "line 2: not a count: \"x\"" "# c\nx 1\n";
  raises "negative header" "line 1: not a count: \"-3\"" "-3 1\n";
  raises "empty input" "line 3: empty input (expected an \"n m\" header)"
    "# only\n\n# comments";
  raises "mixed weights" "line 3: mixed weighted/unweighted" "3 2\n0 1\n1 2 0.5\n";
  raises "non-integer vertex" "line 3: not a vertex id: \"b\"" "3 2\n0 1\n1 b\n";
  raises "negative vertex" "line 2: negative vertex id \"-1\"" "3 1\n-1 2\n";
  raises "vertex out of range" "line 4: vertex 3 out of range (n = 3)"
    "3 2\n0 1\n\n1 3\n";
  raises "bad weight" "line 2: not a weight: \"heavy\"" "2 1\n0 1 heavy\n";
  raises "bad edge line" "line 2: bad edge line (expected \"u v\" or \"u v w\")"
    "3 1\n0 1 2 3\n";
  raises "edge count" "line 1: header says m = 3 but 2 edge lines follow"
    "3 3\n0 1\n1 2\n";
  raises "duplicate weighted edge" "line 4: self-loop or duplicate edge in weighted input"
    "3 3\n0 1 1.0\n1 2 1.0\n1 0 2.0\n"

let test_io_file_roundtrip () =
  let g = Generators.petersen () in
  let path = Filename.temp_file "graph" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write_file path g;
      let g', _ = Io.read_file path in
      check_int "vertices" 10 (Graph.n g');
      check_int "edges" 15 (Graph.m g'))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "graphlib"
    [
      ( "graph",
        [
          Alcotest.test_case "dedup and self-loops" `Quick test_of_edges_dedup;
          Alcotest.test_case "degrees" `Quick test_graph_degree;
          Alcotest.test_case "other endpoint" `Quick test_other_endpoint;
          Alcotest.test_case "complete graph" `Quick test_complete;
          Alcotest.test_case "find edge" `Quick test_find_edge;
          Alcotest.test_case "fold edges" `Quick test_fold_edges;
          Alcotest.test_case "range check" `Quick test_out_of_range;
        ] );
      ( "union_find",
        [
          Alcotest.test_case "basic ops" `Quick test_uf_basic;
          Alcotest.test_case "long chain" `Quick test_uf_chain;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "drain order" `Quick test_pq_order;
          Alcotest.test_case "peek and empty" `Quick test_pq_peek_empty;
        ]
        @ qsuite [ prop_pq_sorts ] );
      ( "traversal",
        [
          Alcotest.test_case "bfs on a path" `Quick test_bfs_path;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "connected subsets" `Quick test_connected_subset;
          Alcotest.test_case "multi-source bfs" `Quick test_multi_source;
          Alcotest.test_case "restricted bfs" `Quick test_restricted_bfs;
        ]
        @ qsuite [ test_bfs_matches_dijkstra_unit ] );
      ( "distance",
        [
          Alcotest.test_case "exact diameters" `Quick test_diameter_exact;
          Alcotest.test_case "double sweep on trees" `Quick test_double_sweep_on_tree;
          Alcotest.test_case "radius and center" `Quick test_radius_center;
        ] );
      ( "spanning",
        [
          Alcotest.test_case "bfs tree height" `Quick test_bfs_tree_height;
          Alcotest.test_case "children and sizes" `Quick test_tree_children_sizes;
          Alcotest.test_case "path to root" `Quick test_path_to_root;
          Alcotest.test_case "mst edge count" `Quick test_mst_edge_count;
          Alcotest.test_case "disconnected rejected" `Quick test_disconnected_bfs_tree;
        ]
        @ qsuite [ test_bfs_tree_valid; test_kruskal_prim_agree ] );
      ( "subgraph",
        [
          Alcotest.test_case "induced" `Quick test_induced;
          Alcotest.test_case "delete vertices" `Quick test_delete_vertices;
          Alcotest.test_case "delete edges" `Quick test_delete_edges;
          Alcotest.test_case "quotient" `Quick test_quotient;
          Alcotest.test_case "contract edge" `Quick test_contract_edge;
        ]
        @ qsuite [ prop_contract_keeps_connected ] );
      ( "generators",
        [
          Alcotest.test_case "grid shape" `Quick test_grid_shape;
          Alcotest.test_case "wheel shape" `Quick test_wheel_shape;
          Alcotest.test_case "apex diameter collapse" `Quick
            test_cycle_apex_diameter_collapse;
          Alcotest.test_case "torus regular" `Quick test_torus_regular;
          Alcotest.test_case "lower-bound family" `Quick test_lower_bound_family;
          Alcotest.test_case "lower-bound parts" `Quick test_lower_bound_parts_are_paths;
          Alcotest.test_case "add apices" `Quick test_add_apices;
          Alcotest.test_case "binary tree" `Quick test_binary_tree;
          Alcotest.test_case "petersen" `Quick test_petersen;
          Alcotest.test_case "complete bipartite" `Quick test_complete_bipartite;
        ]
        @ qsuite
            [
              test_apollonian_properties;
              test_series_parallel_connected;
              test_k_tree_shape;
              test_random_tree_is_tree;
              test_erdos_renyi_connected;
            ] );
      ( "io",
        [
          Alcotest.test_case "weighted roundtrip" `Quick test_io_roundtrip_weighted;
          Alcotest.test_case "comments and errors" `Quick test_io_comments_and_errors;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
        ]
        @ qsuite [ test_io_roundtrip_unweighted ] );
    ]
