(* Tests for the shortcut framework: parts, metrics, Steiner forests, the
   uniform construction, clique-sum / treewidth / apex constructions,
   cell-assignment and combinatorial gates. *)

open Graphlib
module Sh = Shortcuts

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- Part ---------- *)

let test_part_of_list_validates () =
  let g = Generators.cycle 6 in
  Alcotest.check_raises "overlap rejected"
    (Invalid_argument "Part: overlapping parts") (fun () ->
      ignore (Sh.Part.of_list g [ [ 0; 1 ]; [ 1; 2 ] ]));
  Alcotest.check_raises "disconnected rejected"
    (Invalid_argument "Part.of_list: disconnected part") (fun () ->
      ignore (Sh.Part.of_list g [ [ 0; 3 ] ]))

let test_voronoi_covers =
  QCheck.Test.make ~name:"Voronoi parts partition all vertices" ~count:20
    QCheck.(pair (int_range 5 120) (int_range 1 10))
    (fun (n, k) ->
      let g = Generators.erdos_renyi ~seed:(n + k) n 0.2 in
      let parts = Sh.Part.voronoi ~seed:k g ~count:k in
      Sh.Part.check g parts = Ok ()
      && Array.for_all (fun p -> p >= 0) parts.Sh.Part.part_of)

let test_grid_rows_parts () =
  let parts = Sh.Part.grid_rows 6 4 in
  check_int "four rows" 4 (Sh.Part.count parts);
  check_int "row size" 6 (Sh.Part.size parts 0);
  check "valid" true (Sh.Part.check (Generators.grid 6 4).Generators.graph parts = Ok ())

let test_boruvka_fragments_valid =
  QCheck.Test.make ~name:"Boruvka fragments are valid parts" ~count:15
    QCheck.(pair (int_range 8 80) (int_range 0 4))
    (fun (n, level) ->
      let g = Generators.erdos_renyi ~seed:(7 * n) n 0.25 in
      let w = Graph.random_weights ~state:(Random.State.make [| n |]) g in
      let parts = Sh.Part.boruvka_fragments g w ~level in
      Sh.Part.check g parts = Ok ())

let test_boruvka_fragments_shrink () =
  let g = Generators.erdos_renyi ~seed:11 100 0.1 in
  let w = Graph.random_weights g in
  let c0 = Sh.Part.count (Sh.Part.boruvka_fragments g w ~level:0) in
  let c1 = Sh.Part.count (Sh.Part.boruvka_fragments g w ~level:1) in
  let c2 = Sh.Part.count (Sh.Part.boruvka_fragments g w ~level:2) in
  check_int "level 0 = singletons" 100 c0;
  check "each level at least halves" true (c1 <= c0 / 2 && c2 <= (c1 + 1) / 2)

let test_random_connected_parts =
  QCheck.Test.make ~name:"random connected parts are valid" ~count:15
    QCheck.(int_range 10 100)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(n + 3) n 0.2 in
      let parts = Sh.Part.random_connected ~seed:n g ~count:5 ~coverage:0.5 in
      Sh.Part.check g parts = Ok ())

let test_max_part_diameter () =
  let gp = Generators.grid 10 1 in
  let parts = Sh.Part.of_list gp.Generators.graph [ List.init 10 (fun i -> i) ] in
  check_int "path part diameter" 9 (Sh.Part.max_part_diameter gp.Generators.graph parts)

(* ---------- Shortcut metrics ---------- *)

let test_metrics_by_hand () =
  (* path 0-1-2-3-4 rooted at 0; parts {0,1} and {3,4} *)
  let g = Generators.path 5 in
  let tree = Spanning.bfs_tree g 0 in
  let parts = Sh.Part.of_list g [ [ 0; 1 ]; [ 3; 4 ] ] in
  (* give part 0 edge (1,2) and part 1 edge (2,3); both are tree edges *)
  let e12 = Option.get (Graph.find_edge g 1 2) in
  let e23 = Option.get (Graph.find_edge g 2 3) in
  let sc = Sh.Shortcut.make tree parts [| [ e12 ]; [ e23 ] |] in
  check_int "congestion 1" 1 (Sh.Shortcut.congestion sc);
  (* part 0: component {1,2} contains part vertex 1; vertex 0 isolated: 2 blocks *)
  check_int "blocks of part 0" 2 (Sh.Shortcut.blocks_of_part sc 0);
  check_int "block parameter" 2 (Sh.Shortcut.block_parameter sc);
  check_int "quality" ((2 * 4) + 1) (Sh.Shortcut.quality sc)

let test_empty_shortcut_blocks () =
  let g = Generators.path 4 in
  let tree = Spanning.bfs_tree g 0 in
  let parts = Sh.Part.of_list g [ [ 0; 1; 2; 3 ] ] in
  let sc = Sh.Shortcut.empty tree parts in
  check_int "no edges: one block per vertex" 4 (Sh.Shortcut.blocks_of_part sc 0);
  check_int "congestion zero" 0 (Sh.Shortcut.congestion sc)

let test_non_tree_edge_rejected () =
  let g = Generators.cycle 4 in
  let tree = Spanning.bfs_tree g 0 in
  let parts = Sh.Part.of_list g [ [ 0; 1 ] ] in
  let non_tree = ref (-1) in
  Graph.iter_edges g (fun e _ _ -> if not (Spanning.is_tree_edge tree e) then non_tree := e);
  Alcotest.check_raises "non-tree edge rejected"
    (Invalid_argument "Shortcut.make: non-tree edge in shortcut") (fun () ->
      ignore (Sh.Shortcut.make tree parts [| [ !non_tree ] |]))

let test_shortcut_union () =
  let g = Generators.path 5 in
  let tree = Spanning.bfs_tree g 0 in
  let parts = Sh.Part.of_list g [ [ 0; 1 ]; [ 3; 4 ] ] in
  let e12 = Option.get (Graph.find_edge g 1 2) in
  let e23 = Option.get (Graph.find_edge g 2 3) in
  let a = Sh.Shortcut.make tree parts [| [ e12 ]; [] |] in
  let b = Sh.Shortcut.make tree parts [| [ e12; e23 ]; [ e23 ] |] in
  let u = Sh.Shortcut.union a b in
  check_int "union dedupes" 3 (Sh.Shortcut.total_assigned u)

let congestion_brute sc =
  (* recompute congestion by scanning parts per edge *)
  let tbl = Hashtbl.create 64 in
  Array.iter
    (Array.iter (fun e ->
         Hashtbl.replace tbl e (1 + Option.value (Hashtbl.find_opt tbl e) ~default:0)))
    sc.Sh.Shortcut.assigned;
  Hashtbl.fold (fun _ c acc -> max c acc) tbl 0

let prop_congestion_consistent =
  QCheck.Test.make ~name:"congestion equals brute-force recount" ~count:15
    QCheck.(int_range 10 80)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(n * 2) n 0.2 in
      let tree = Spanning.bfs_tree g 0 in
      let parts = Sh.Part.voronoi ~seed:n g ~count:5 in
      let sc = Sh.Generic.construct tree parts in
      Sh.Shortcut.congestion sc = congestion_brute sc)

(* ---------- Steiner ---------- *)

let test_steiner_path_part () =
  (* on a path rooted at 0, the Steiner tree of {2,4} is the edges (2,3),(3,4) *)
  let g = Generators.path 6 in
  let tree = Spanning.bfs_tree g 0 in
  let parts = Sh.Part.of_list g [ [ 2; 3; 4 ] ] in
  let st = Sh.Steiner.compute tree parts in
  check_int "two steiner edges" 2 (List.length st.Sh.Steiner.edges.(0));
  check_int "max load" 1 (Sh.Steiner.max_load st)

let test_steiner_load_overlap () =
  (* star: all parts' Steiner trees share the center edges *)
  let g = Generators.star 7 in
  let tree = Spanning.bfs_tree g 0 in
  let parts = Sh.Part.of_list g [ [ 1 ]; [ 2 ]; [ 3 ] ] in
  (* singleton parts have empty Steiner trees *)
  let st = Sh.Steiner.compute tree parts in
  check_int "singletons: zero load" 0 (Sh.Steiner.max_load st)

let test_steiner_spans_part =
  QCheck.Test.make ~name:"Steiner tree connects the whole part" ~count:15
    QCheck.(int_range 10 80)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(9 * n) n 0.25 in
      let tree = Spanning.bfs_tree g 0 in
      let parts = Sh.Part.voronoi ~seed:(n + 1) g ~count:4 in
      let st = Sh.Steiner.compute tree parts in
      (* granting the full Steiner tree must give exactly 1 block *)
      let sc = Sh.Shortcut.make tree parts (Array.map (fun l -> l) st.Sh.Steiner.edges) in
      Sh.Shortcut.block_parameter sc = 1)

(* ---------- Generic construction ---------- *)

let test_generic_valid =
  QCheck.Test.make ~name:"generic construction is always T-restricted & valid"
    ~count:15
    QCheck.(int_range 10 120)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(4 * n) n 0.15 in
      let tree = Spanning.bfs_tree g 0 in
      let parts = Sh.Part.voronoi ~seed:n g ~count:6 in
      let sc = Sh.Generic.construct tree parts in
      Sh.Shortcut.is_tree_restricted sc)

let test_generic_beats_threshold_extremes () =
  let gp = Generators.grid 16 16 in
  let tree = Spanning.bfs_tree gp.Generators.graph 0 in
  let parts = Sh.Part.voronoi ~seed:2 gp.Generators.graph ~count:12 in
  let best, curve = Sh.Generic.construct_with_stats tree parts in
  let qbest = Sh.Shortcut.quality best in
  check "sweep minimum is the returned shortcut" true
    (List.for_all (fun p -> p.Sh.Generic.q >= qbest) curve)

let test_generic_policies_agree_on_quality_order () =
  let gp = Generators.grid 12 12 in
  let tree = Spanning.bfs_tree gp.Generators.graph 0 in
  let parts = Sh.Part.grid_rows 12 12 in
  let q1 =
    Sh.Shortcut.quality (Sh.Generic.construct ~policy:Sh.Generic.Drop_all tree parts)
  in
  let q2 =
    Sh.Shortcut.quality (Sh.Generic.construct ~policy:Sh.Generic.Keep_kappa tree parts)
  in
  check "keep_kappa no worse than drop_all" true (q2 <= q1)

let test_wheel_quality_constant () =
  (* paper §2.3.2: the wheel admits Theta(1)-quality shortcuts *)
  let g = Generators.cycle_with_apex 129 in
  let tree = Spanning.bfs_tree g 128 in
  let parts =
    Sh.Part.of_list g [ List.init 64 (fun i -> i); List.init 63 (fun i -> 64 + i) ]
  in
  let sc = Sh.Generic.construct tree parts in
  check "wheel quality <= 6" true (Sh.Shortcut.quality sc <= 6)

let test_default_kappas () =
  check "kappas cover the range" true
    (Sh.Generic.default_kappas 9 = [ 1; 2; 4; 8; 9 ]);
  check "kappa one" true (Sh.Generic.default_kappas 1 = [ 1 ])

(* ---------- Clique-sum construction ---------- *)

let planar_pieces seed n k = List.init k (fun i -> (Generators.apollonian ~seed:(seed + i) n).Generators.graph)

let test_cs_construction_valid =
  QCheck.Test.make ~name:"clique-sum construction is valid on all shapes" ~count:6
    (QCheck.oneofl [ Structure.Clique_sum.Path; Structure.Clique_sum.Star; Structure.Clique_sum.Random_tree ])
    (fun shape ->
      let cs = Structure.Clique_sum.compose ~seed:7 ~k:3 ~shape (planar_pieces 20 25 10) in
      let tree = Spanning.bfs_tree cs.Structure.Clique_sum.graph 0 in
      let parts = Sh.Part.voronoi ~seed:3 cs.Structure.Clique_sum.graph ~count:10 in
      let sc = Sh.Cs_shortcut.construct cs tree parts in
      Sh.Shortcut.is_tree_restricted sc && Sh.Shortcut.block_parameter sc >= 1)

let test_cs_fold_reduces_depth () =
  let cs =
    Structure.Clique_sum.compose ~seed:2 ~k:2 ~shape:Structure.Clique_sum.Path
      (List.init 40 (fun i -> Generators.cycle (4 + (i mod 4))))
  in
  let tree = Spanning.bfs_tree cs.Structure.Clique_sum.graph 0 in
  let parts = Sh.Part.voronoi ~seed:5 cs.Structure.Clique_sum.graph ~count:8 in
  let _, _, `Depth_used d_folded =
    Sh.Cs_shortcut.construct_with_stats ~use_fold:true cs tree parts
  in
  let _, _, `Depth_used d_raw =
    Sh.Cs_shortcut.construct_with_stats ~use_fold:false cs tree parts
  in
  check "folding reduces depth" true (d_folded < d_raw);
  check "log^2 bound" true (d_folded <= 2 * 6 * 6)

let test_cs_single_bag_part () =
  (* a part entirely inside one bag is served purely locally *)
  let pieces = planar_pieces 50 30 5 in
  let cs = Structure.Clique_sum.compose ~seed:4 ~k:3 ~shape:Structure.Clique_sum.Path pieces in
  let g = cs.Structure.Clique_sum.graph in
  let tree = Spanning.bfs_tree g 0 in
  (* part = first bag's vertices *)
  let bag0 = Array.to_list cs.Structure.Clique_sum.bags.(2) in
  let sub = List.filter (fun v -> Traversal.is_connected_subset g [ v ]) bag0 in
  ignore sub;
  let parts = Sh.Part.of_list g [ bag0 ] in
  let sc = Sh.Cs_shortcut.construct cs tree parts in
  check "valid" true (Sh.Shortcut.is_tree_restricted sc);
  check "few blocks" true (Sh.Shortcut.block_parameter sc <= 8)

(* ---------- Treewidth construction ---------- *)

let test_tw_construction =
  QCheck.Test.make ~name:"treewidth construction valid on k-trees" ~count:8
    QCheck.(pair (int_range 1 4) (int_range 30 120))
    (fun (k, n) ->
      QCheck.assume (n > k + 1);
      let g, elim = Generators.k_tree ~seed:(n + k) ~k n in
      let td = Structure.Tree_decomposition.of_elimination_order g elim in
      let tree = Spanning.bfs_tree g 0 in
      let parts = Sh.Part.voronoi ~seed:k g ~count:6 in
      let sc = Sh.Tw_shortcut.construct ~decomposition:td g tree parts in
      Sh.Shortcut.is_tree_restricted sc)

let test_tw_block_bound_sp () =
  (* treewidth-2 family: block parameter should stay small as n grows *)
  let bs =
    List.map
      (fun n ->
        let g = Generators.series_parallel ~seed:n n in
        let tree = Spanning.bfs_tree g 0 in
        let parts = Sh.Part.voronoi ~seed:1 g ~count:8 in
        let sc = Sh.Tw_shortcut.construct g tree parts in
        Sh.Shortcut.block_parameter sc)
      [ 100; 200; 400 ]
  in
  check "block parameter bounded" true (List.for_all (fun b -> b <= 12) bs)

(* ---------- Assignment (Lemmas 4-6) ---------- *)

let test_assignment_properties =
  QCheck.Test.make ~name:"peeling satisfies Definition 15" ~count:15
    QCheck.(int_range 20 150)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(6 * n) n 0.12 in
      let cells = Sh.Part.voronoi ~seed:2 g ~count:(max 2 (n / 10)) in
      let parts = Sh.Part.voronoi ~seed:9 g ~count:(max 2 (n / 15)) in
      let r = Sh.Assignment.assign ~cells ~parts in
      (* property (i): each part unrelated to at most 2 intersecting cells *)
      let prop_i =
        List.for_all (fun (_, cs) -> List.length cs <= 2) r.Sh.Assignment.leftover
      in
      (* property (ii): no cell related to more than beta parts *)
      let percell = Hashtbl.create 16 in
      List.iter
        (fun (c, _) ->
          Hashtbl.replace percell c (1 + Option.value (Hashtbl.find_opt percell c) ~default:0))
        r.Sh.Assignment.relation;
      let prop_ii =
        Hashtbl.fold (fun _ k acc -> acc && k <= r.Sh.Assignment.beta) percell true
      in
      (* coverage: every (cell, part) incidence is either related or leftover *)
      let related = Hashtbl.create 64 in
      List.iter (fun (c, p) -> Hashtbl.replace related (c, p) ()) r.Sh.Assignment.relation;
      let leftover = Hashtbl.create 64 in
      List.iter
        (fun (p, cs) -> List.iter (fun c -> Hashtbl.replace leftover (c, p) ()) cs)
        r.Sh.Assignment.leftover;
      let coverage = ref true in
      Array.iteri
        (fun v p ->
          if p >= 0 then begin
            let c = cells.Sh.Part.part_of.(v) in
            if c >= 0 && (not (Hashtbl.mem related (c, p))) && not (Hashtbl.mem leftover (c, p))
            then coverage := false
          end)
        parts.Sh.Part.part_of;
      prop_i && prop_ii && !coverage)

(* ---------- Apex construction ---------- *)

let test_cells_of_tree () =
  let g = Generators.cycle_with_apex 33 in
  let tree = Spanning.bfs_tree g 32 in
  let cells, roots = Sh.Apex_shortcut.cells_of_tree tree ~apices:[| 32 |] in
  check "cells valid" true (Sh.Part.check g cells = Ok ());
  check_int "every rim vertex its own cell (star tree)" 32 (Sh.Part.count cells);
  check_int "roots count" 32 (Array.length roots)

let test_apex_construction_wheel () =
  let g = Generators.cycle_with_apex 65 in
  let tree = Spanning.bfs_tree g 64 in
  let parts =
    Sh.Part.of_list g [ List.init 32 (fun i -> i); List.init 31 (fun i -> 32 + i) ]
  in
  let sc = Sh.Apex_shortcut.construct ~apices:[| 64 |] tree parts in
  check "valid" true (Sh.Shortcut.is_tree_restricted sc);
  check "quality small despite cycle parts" true (Sh.Shortcut.quality sc <= 16)

let test_apex_part_with_apex_gets_tree () =
  let g = Generators.cycle_with_apex 17 in
  let tree = Spanning.bfs_tree g 16 in
  let parts = Sh.Part.of_list g [ 16 :: List.init 4 (fun i -> i) ] in
  let sc = Sh.Apex_shortcut.construct ~apices:[| 16 |] tree parts in
  check_int "whole tree granted" (Graph.n g - 1)
    (Array.length sc.Sh.Shortcut.assigned.(0))

let test_apex_on_planar_apex_graph =
  QCheck.Test.make ~name:"apex construction valid on planar+apex" ~count:8
    QCheck.(int_range 30 120)
    (fun n ->
      let base = (Generators.apollonian ~seed:n n).Generators.graph in
      let g = Generators.add_apices ~seed:n base ~q:2 ~fanout:6 in
      let tree = Spanning.bfs_tree g 0 in
      let parts = Sh.Part.voronoi ~seed:(n + 4) g ~count:6 in
      let apices = [| n; n + 1 |] in
      let sc = Sh.Apex_shortcut.construct ~apices tree parts in
      Sh.Shortcut.is_tree_restricted sc)

(* ---------- Gates ---------- *)

let test_gates_grid_voronoi =
  QCheck.Test.make ~name:"gates satisfy Definition 17 on grids" ~count:6
    QCheck.(pair (int_range 8 20) (int_range 3 9))
    (fun (side, k) ->
      let gp = Generators.grid side side in
      let cells = Sh.Part.voronoi ~seed:(side + k) gp.Generators.graph ~count:k in
      let gates = Sh.Gate.build gp.Generators.graph ~coords:gp.Generators.coords ~cells in
      Sh.Gate.check gp.Generators.graph ~cells gates = Ok ())

let test_gates_apollonian =
  QCheck.Test.make ~name:"gates satisfy Definition 17 on Apollonian networks"
    ~count:5
    QCheck.(pair (int_range 40 150) (int_range 3 7))
    (fun (n, k) ->
      let gp = Generators.apollonian ~seed:(n + k) n in
      let cells = Sh.Part.voronoi ~seed:(n + 1) gp.Generators.graph ~count:k in
      let gates = Sh.Gate.build gp.Generators.graph ~coords:gp.Generators.coords ~cells in
      Sh.Gate.check gp.Generators.graph ~cells gates = Ok ())

let test_gates_fence_bound () =
  (* property 6 with s = O(d): fences sum to <= 36 d |C| (Lemma 7's constant) *)
  let gp = Generators.grid 20 20 in
  let cells = Sh.Part.voronoi ~seed:5 gp.Generators.graph ~count:10 in
  let gates = Sh.Gate.build gp.Generators.graph ~coords:gp.Generators.coords ~cells in
  let d = Sh.Cell.diameter gp.Generators.graph cells in
  check "fence total <= 36 d |C|" true
    (Sh.Gate.fence_total gates <= 36 * d * Sh.Part.count cells)

let test_gates_single_inter_cell_edge () =
  (* two path cells joined by one edge: the gate is just that edge *)
  let g = Generators.path 6 in
  let coords = Array.init 6 (fun i -> (float_of_int i, 0.0)) in
  let cells = Sh.Part.of_list g [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ] in
  let gates = Sh.Gate.build g ~coords ~cells in
  check_int "one gate" 1 (List.length gates);
  check "gate = edge endpoints" true
    (List.sort compare (List.hd gates).Sh.Gate.gate = [ 2; 3 ]);
  check "checker passes" true (Sh.Gate.check g ~cells gates = Ok ())

(* ---------- Optimal (brute force ground truth) ---------- *)

let test_generic_near_optimal =
  QCheck.Test.make ~name:"generic construction is within 2x of the true optimum"
    ~count:20
    QCheck.(int_range 6 16)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(71 * n) n 0.35 in
      let tree = Spanning.bfs_tree g 0 in
      let parts = Sh.Part.voronoi ~seed:n g ~count:3 in
      match Sh.Optimal.optimal_quality tree parts with
      | Some opt ->
          let q = Sh.Shortcut.quality (Sh.Generic.construct tree parts) in
          q >= opt && q <= max (opt + 2) (2 * opt)
      | None -> true)

let test_optimal_respects_cap () =
  let gp = Generators.grid 12 12 in
  let tree = Spanning.bfs_tree gp.Generators.graph 0 in
  let parts = Sh.Part.grid_rows 12 12 in
  check "large instance refused" true
    (Sh.Optimal.brute_force ~max_bits:10 tree parts = None)

let test_optimal_tiny_by_hand () =
  (* path of 4, single part {0,3}: optimum grants the full path, b=1 c=1 *)
  let g = Generators.path 4 in
  let tree = Spanning.bfs_tree g 0 in
  let parts = Sh.Part.of_list g [ [ 0; 1; 2; 3 ] ] in
  match Sh.Optimal.brute_force tree parts with
  | Some sc ->
      check_int "optimal quality" (1 * 3 + 1) (Sh.Shortcut.quality sc)
  | None -> Alcotest.fail "instance should be searchable"

let test_lemma4_beta_vs_gates =
  QCheck.Test.make ~name:"Lemma 4: peeling beta within the 2s gate bound" ~count:6
    QCheck.(pair (int_range 10 24) (int_range 4 10))
    (fun (side, kcells) ->
      let gp = Generators.grid side side in
      let cells = Sh.Part.voronoi ~seed:11 gp.Generators.graph ~count:kcells in
      let parts = Sh.Part.voronoi ~seed:23 gp.Generators.graph ~count:(2 * kcells) in
      let gates = Sh.Gate.build gp.Generators.graph ~coords:gp.Generators.coords ~cells in
      let s =
        float_of_int (Sh.Gate.fence_total gates) /. float_of_int (Sh.Part.count cells)
      in
      let r = Sh.Assignment.assign ~cells ~parts in
      float_of_int r.Sh.Assignment.beta <= (2.0 *. s) +. 1e-9)

(* ---------- Cell ---------- *)

let test_cell_check_diameter () =
  let gp = Generators.grid 10 10 in
  let cells = Sh.Cell.bfs_cells ~seed:3 gp.Generators.graph ~count:8 in
  check "valid with generous bound" true
    (Sh.Cell.check gp.Generators.graph cells ~max_diameter:30 = Ok ());
  check "tight bound fails" true
    (Sh.Cell.check gp.Generators.graph cells ~max_diameter:0 <> Ok ())

(* ---------- Quality rows ---------- *)

let test_quality_measure () =
  let gp = Generators.grid 8 8 in
  let tree = Spanning.bfs_tree gp.Generators.graph 0 in
  let parts = Sh.Part.grid_rows 8 8 in
  let sc = Sh.Generic.construct tree parts in
  let row = Sh.Quality.measure ~label:"test" sc in
  check_int "n recorded" 64 row.Sh.Quality.n;
  check_int "parts recorded" 8 row.Sh.Quality.nparts;
  check_int "q = b*d + c" ((row.Sh.Quality.b * row.Sh.Quality.d_tree) + row.Sh.Quality.c)
    row.Sh.Quality.q

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "shortcuts"
    [
      ( "part",
        [
          Alcotest.test_case "validation" `Quick test_part_of_list_validates;
          Alcotest.test_case "grid rows" `Quick test_grid_rows_parts;
          Alcotest.test_case "fragment shrink" `Quick test_boruvka_fragments_shrink;
          Alcotest.test_case "part diameter" `Quick test_max_part_diameter;
        ]
        @ qsuite
            [ test_voronoi_covers; test_boruvka_fragments_valid; test_random_connected_parts ]
      );
      ( "metrics",
        [
          Alcotest.test_case "hand-computed" `Quick test_metrics_by_hand;
          Alcotest.test_case "empty shortcut" `Quick test_empty_shortcut_blocks;
          Alcotest.test_case "tree restriction enforced" `Quick test_non_tree_edge_rejected;
          Alcotest.test_case "union" `Quick test_shortcut_union;
        ]
        @ qsuite [ prop_congestion_consistent ] );
      ( "steiner",
        [
          Alcotest.test_case "path part" `Quick test_steiner_path_part;
          Alcotest.test_case "singleton parts" `Quick test_steiner_load_overlap;
        ]
        @ qsuite [ test_steiner_spans_part ] );
      ( "generic",
        [
          Alcotest.test_case "sweep optimum" `Quick test_generic_beats_threshold_extremes;
          Alcotest.test_case "policies" `Quick test_generic_policies_agree_on_quality_order;
          Alcotest.test_case "wheel constant quality" `Quick test_wheel_quality_constant;
          Alcotest.test_case "kappa schedule" `Quick test_default_kappas;
        ]
        @ qsuite [ test_generic_valid ] );
      ( "clique_sum",
        [
          Alcotest.test_case "fold reduces depth" `Quick test_cs_fold_reduces_depth;
          Alcotest.test_case "single-bag part" `Quick test_cs_single_bag_part;
        ]
        @ qsuite [ test_cs_construction_valid ] );
      ( "treewidth",
        [ Alcotest.test_case "SP block bound" `Quick test_tw_block_bound_sp ]
        @ qsuite [ test_tw_construction ] );
      ("assignment", qsuite [ test_assignment_properties; test_lemma4_beta_vs_gates ]);
      ( "apex",
        [
          Alcotest.test_case "cells of wheel" `Quick test_cells_of_tree;
          Alcotest.test_case "wheel construction" `Quick test_apex_construction_wheel;
          Alcotest.test_case "apex part gets tree" `Quick test_apex_part_with_apex_gets_tree;
        ]
        @ qsuite [ test_apex_on_planar_apex_graph ] );
      ( "gates",
        [
          Alcotest.test_case "fence bound" `Quick test_gates_fence_bound;
          Alcotest.test_case "single edge gate" `Quick test_gates_single_inter_cell_edge;
        ]
        @ qsuite [ test_gates_grid_voronoi; test_gates_apollonian ] );
      ("cell", [ Alcotest.test_case "diameter check" `Quick test_cell_check_diameter ]);
      ( "optimal",
        [
          Alcotest.test_case "size cap" `Quick test_optimal_respects_cap;
          Alcotest.test_case "tiny by hand" `Quick test_optimal_tiny_by_hand;
        ]
        @ qsuite [ test_generic_near_optimal ] );
      ("quality", [ Alcotest.test_case "measure row" `Quick test_quality_measure ]);
    ]
