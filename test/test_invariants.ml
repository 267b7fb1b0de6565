(* Cross-cutting invariants of the shortcut framework, checked as
   properties: monotonicity of the metrics, structural identities from the
   definitions, and consistency between independent code paths. *)

open Graphlib
module S = Structure
module Sh = Shortcuts

let check = Alcotest.(check bool)

let random_instance seed =
  let n = 12 + (seed mod 60) in
  let g = Generators.erdos_renyi ~seed:(101 * seed) n 0.2 in
  let tree = Spanning.bfs_tree g 0 in
  let parts = Sh.Part.voronoi ~seed g ~count:(2 + (seed mod 5)) in
  (g, tree, parts)

(* ---- metric monotonicity ---- *)

let prop_blocks_decrease_with_edges =
  QCheck.Test.make ~name:"granting more edges never increases blocks" ~count:30
    QCheck.(int_range 1 500)
    (fun seed ->
      let _, tree, parts = random_instance seed in
      let st = Sh.Steiner.compute tree parts in
      let full = Sh.Shortcut.make tree parts (Array.map (fun l -> l) st.Sh.Steiner.edges) in
      let half =
        Sh.Shortcut.make tree parts
          (Array.map (List.filteri (fun i _ -> i mod 2 = 0)) st.Sh.Steiner.edges)
      in
      let ok = ref true in
      for i = 0 to Sh.Part.count parts - 1 do
        if Sh.Shortcut.blocks_of_part full i > Sh.Shortcut.blocks_of_part half i then
          ok := false
      done;
      !ok)

let prop_congestion_additive_under_union =
  QCheck.Test.make ~name:"congestion of a union is at most the sum" ~count:30
    QCheck.(int_range 1 500)
    (fun seed ->
      let _, tree, parts = random_instance seed in
      let a = Sh.Generic.construct ~kappas:[ 1 ] tree parts in
      let b = Sh.Generic.construct ~kappas:[ 4 ] tree parts in
      let u = Sh.Shortcut.union a b in
      Sh.Shortcut.congestion u <= Sh.Shortcut.congestion a + Sh.Shortcut.congestion b
      && Sh.Shortcut.congestion u >= max (Sh.Shortcut.congestion a) (Sh.Shortcut.congestion b))

let prop_kappa_monotone_congestion =
  QCheck.Test.make ~name:"congestion is nondecreasing in kappa" ~count:30
    QCheck.(int_range 1 500)
    (fun seed ->
      let _, tree, parts = random_instance seed in
      let pts = Sh.Generic.frontier tree parts in
      let rec nondec = function
        | a :: (b :: _ as rest) -> a.Sh.Generic.c <= b.Sh.Generic.c && nondec rest
        | _ -> true
      in
      nondec pts)

let prop_kappa_monotone_blocks =
  QCheck.Test.make ~name:"blocks are nonincreasing in kappa" ~count:30
    QCheck.(int_range 1 500)
    (fun seed ->
      let _, tree, parts = random_instance seed in
      let pts = Sh.Generic.frontier tree parts in
      let rec noninc = function
        | a :: (b :: _ as rest) -> a.Sh.Generic.b >= b.Sh.Generic.b && noninc rest
        | _ -> true
      in
      noninc pts)

(* ---- definitional identities ---- *)

let prop_full_steiner_one_block =
  QCheck.Test.make ~name:"full Steiner tree => exactly one block per part" ~count:30
    QCheck.(int_range 1 500)
    (fun seed ->
      let _, tree, parts = random_instance seed in
      let st = Sh.Steiner.compute tree parts in
      let sc = Sh.Shortcut.make tree parts (Array.map (fun l -> l) st.Sh.Steiner.edges) in
      Sh.Shortcut.block_parameter sc = 1)

let prop_steiner_load_equals_congestion =
  QCheck.Test.make ~name:"Steiner load equals full-assignment congestion" ~count:30
    QCheck.(int_range 1 500)
    (fun seed ->
      let _, tree, parts = random_instance seed in
      let st = Sh.Steiner.compute tree parts in
      let sc = Sh.Shortcut.make tree parts (Array.map (fun l -> l) st.Sh.Steiner.edges) in
      Sh.Shortcut.congestion sc = Sh.Steiner.max_load st)

let prop_quality_identity =
  QCheck.Test.make ~name:"q = b * d_T + c always" ~count:30
    QCheck.(int_range 1 500)
    (fun seed ->
      let _, tree, parts = random_instance seed in
      let sc = Sh.Generic.construct tree parts in
      Sh.Shortcut.quality sc
      = (Sh.Shortcut.block_parameter sc * Spanning.height tree)
        + Sh.Shortcut.congestion sc)

let prop_empty_blocks_are_sizes =
  QCheck.Test.make ~name:"empty shortcut: blocks = part size" ~count:30
    QCheck.(int_range 1 500)
    (fun seed ->
      let _, tree, parts = random_instance seed in
      let sc = Sh.Shortcut.empty tree parts in
      let ok = ref true in
      for i = 0 to Sh.Part.count parts - 1 do
        if Sh.Shortcut.blocks_of_part sc i <> Sh.Part.size parts i then ok := false
      done;
      !ok)

(* ---- consistency between code paths ---- *)

let prop_restricted_steiner_subset =
  QCheck.Test.make ~name:"restricted Steiner trees are subsets of full ones" ~count:30
    QCheck.(int_range 1 500)
    (fun seed ->
      let _, tree, parts = random_instance seed in
      let full = Sh.Steiner.compute tree parts in
      let members =
        Array.map
          (fun p -> Array.to_list p |> List.filteri (fun i _ -> i mod 2 = 0))
          parts.Sh.Part.parts
      in
      let restricted = Sh.Steiner.compute_restricted tree parts ~members in
      let ok = ref true in
      Array.iteri
        (fun i es ->
          (* a restricted member set is not a subset relation on edges in
             general (fewer members can still span the same paths), but the
             load can never exceed the full load on any edge *)
          ignore es;
          List.iter
            (fun e ->
              let lr = Option.value (Hashtbl.find_opt restricted.Sh.Steiner.load e) ~default:0 in
              let lf = Option.value (Hashtbl.find_opt full.Sh.Steiner.load e) ~default:0 in
              if lr > lf then ok := false)
            restricted.Sh.Steiner.edges.(i))
        restricted.Sh.Steiner.edges;
      !ok)

let prop_aggregation_rounds_lower_bound =
  QCheck.Test.make ~name:"aggregation needs at least the part eccentricity bound"
    ~count:15
    QCheck.(int_range 1 200)
    (fun seed ->
      let g, tree, parts = random_instance seed in
      ignore g;
      let sc = Sh.Generic.construct tree parts in
      let rounds = Congest.Aggregate.rounds_for_parts sc ~seed in
      (* sanity: rounds are positive whenever some part has >= 2 vertices *)
      let multi = ref false in
      for i = 0 to Sh.Part.count parts - 1 do
        if Sh.Part.size parts i >= 2 then multi := true
      done;
      (not !multi) || rounds >= 1)

let prop_mst_weight_independent_of_constructor =
  QCheck.Test.make ~name:"MST weight identical across all constructors" ~count:10
    QCheck.(int_range 1 100)
    (fun seed ->
      let g = Generators.erdos_renyi ~seed:(103 * seed) (15 + (seed mod 40)) 0.25 in
      let w = Graph.random_weights ~state:(Random.State.make [| seed |]) g in
      let r1 = Congest.Mst.boruvka ~constructor:Congest.Mst.shortcut_constructor g w in
      let r2 = Congest.Mst.boruvka ~constructor:Congest.Mst.no_shortcut_constructor g w in
      let r3 = Congest.Mst.pipelined g w in
      abs_float (r1.Congest.Mst.mst_weight -. r2.Congest.Mst.mst_weight) < 1e-9
      && abs_float (r1.Congest.Mst.mst_weight -. r3.Congest.Mst.mst_weight) < 1e-9)

(* ---- structure toolkit invariants ---- *)

let prop_fold_preserves_bag_count =
  QCheck.Test.make ~name:"folding preserves the set of bags" ~count:30
    QCheck.(int_range 2 400)
    (fun n ->
      let g = Generators.random_tree ~seed:(107 * n) n in
      let t = Spanning.bfs_tree g 0 in
      let f = S.Fold.fold ~parent:t.Spanning.parent in
      Array.fold_left (fun acc ms -> acc + List.length ms) 0 f.S.Fold.groups = n)

let prop_planarity_stable_under_contraction =
  QCheck.Test.make ~name:"contracting an edge of a planar graph keeps it planar"
    ~count:15
    QCheck.(int_range 5 60)
    (fun n ->
      let gp = Generators.apollonian ~seed:(109 * n) (max 4 n) in
      let g = gp.Generators.graph in
      let g' = Subgraph.contract_edge g (n mod Graph.m g) in
      S.Planarity.is_planar g')

let prop_treewidth_monotone_under_deletion =
  QCheck.Test.make ~name:"deleting a vertex never raises the heuristic width by much"
    ~count:10
    QCheck.(int_range 8 40)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(113 * n) n 0.25 in
      let w0 = S.Treewidth.upper_bound g in
      let m = Subgraph.delete_vertices g [ 0 ] in
      if not (Traversal.is_connected m.Subgraph.sub) then true
      else
        (* heuristics are not perfectly monotone, but should stay close *)
        S.Treewidth.upper_bound m.Subgraph.sub <= w0 + 2)

let prop_fundamental_cycle_length =
  QCheck.Test.make ~name:"fundamental cycles have <= 2 height + 1 vertices" ~count:20
    QCheck.(int_range 5 80)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(127 * n) n 0.2 in
      let tree = Spanning.bfs_tree g 0 in
      let ok = ref true in
      Graph.iter_edges g (fun e _ _ ->
          if not (Spanning.is_tree_edge tree e) then begin
            let cyc = S.Embedding.induced_cycle_edges tree e in
            if List.length cyc > (2 * Spanning.height tree) + 1 then ok := false
          end);
      !ok)

let prop_euler_formula =
  QCheck.Test.make ~name:"face tracing satisfies Euler's formula" ~count:15
    QCheck.(int_range 4 120)
    (fun n ->
      let gp = Generators.apollonian ~seed:(137 * n) n in
      let emb = S.Embedding.of_coords gp.Generators.graph gp.Generators.coords in
      let _, f = S.Embedding.faces emb in
      (* n - m + f = 2 - 2g with g = 0 for coordinate embeddings *)
      Graph.n gp.Generators.graph - Graph.m gp.Generators.graph + f = 2)

let prop_dart_face_partition =
  QCheck.Test.make ~name:"every dart lies on exactly one face orbit" ~count:10
    QCheck.(int_range 4 80)
    (fun n ->
      let gp = Generators.apollonian ~seed:(139 * n) n in
      let emb = S.Embedding.of_coords gp.Generators.graph gp.Generators.coords in
      let face, nf = S.Embedding.faces emb in
      Array.for_all (fun f -> f >= 0 && f < nf) face)

let prop_sp_size_counts_edges =
  QCheck.Test.make ~name:"SP witnesses count each graph edge exactly once" ~count:15
    QCheck.(int_range 1 60)
    (fun seed ->
      let g, t = S.Sp.generate ~seed (4 + (seed * 2)) in
      S.Sp.size t = Graph.m g)

let prop_separator_trivially_sound =
  QCheck.Test.make ~name:"separator checker accepts its own output" ~count:10
    QCheck.(int_range 10 80)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(149 * n) n 0.2 in
      let tree = Spanning.bfs_tree g 0 in
      let sep = S.Separator.fundamental_cycle g tree in
      let lvl = S.Separator.bfs_level g ~root:0 in
      S.Separator.check g sep && S.Separator.check g lvl)

let prop_lca_depth_bound =
  QCheck.Test.make ~name:"lca depth <= min endpoint depth" ~count:30
    QCheck.(int_range 3 200)
    (fun n ->
      let g = Generators.random_tree ~seed:(131 * n) n in
      let t = Spanning.bfs_tree g 0 in
      let lca = S.Lca.create ~parent:t.Spanning.parent ~depth:t.Spanning.depth in
      let st = Random.State.make [| n |] in
      let ok = ref true in
      for _ = 1 to 10 do
        let a = Random.State.int st n and b = Random.State.int st n in
        let l = S.Lca.lca lca a b in
        if t.Spanning.depth.(l) > min t.Spanning.depth.(a) t.Spanning.depth.(b) then
          ok := false
      done;
      !ok)

(* the sweep scores each kappa without building a shortcut; each point must
   be what the shortcut of that single kappa measures, for both policies
   and for thresholds past the max Steiner load *)
let point_matches sc p =
  p.Sh.Generic.b = Sh.Shortcut.block_parameter sc
  && p.Sh.Generic.c = Sh.Shortcut.congestion sc
  && p.Sh.Generic.q = Sh.Shortcut.quality sc

let prop_frontier_matches_construct =
  QCheck.Test.make ~name:"frontier points = metrics of construct ~kappas:[k]"
    ~count:30
    QCheck.(int_range 1 500)
    (fun seed ->
      let _, tree, parts = random_instance seed in
      let max_load = Sh.Steiner.max_load (Sh.Steiner.compute tree parts) in
      let kappas = List.init (max_load + 3) Fun.id in
      List.for_all
        (fun policy ->
          let pts = Sh.Generic.frontier ~policy ~kappas tree parts in
          List.length pts = List.length kappas
          && List.for_all2
               (fun k p ->
                 p.Sh.Generic.kappa = k
                 && point_matches
                      (Sh.Generic.construct ~policy ~kappas:[ k ] tree parts)
                      p)
               kappas pts)
        [ Sh.Generic.Keep_kappa; Sh.Generic.Drop_all ])

(* the same with global grants, where congestion is counted per edge: random
   tree edges (repeats included) granted to every part at every kappa *)
let prop_sweep_with_global_grants =
  QCheck.Test.make ~name:"sweep points with global grants = metrics of its shortcut"
    ~count:30
    QCheck.(int_range 1 500)
    (fun seed ->
      let _, tree, parts = random_instance seed in
      let st = Random.State.make [| seed |] in
      let tree_edges = Array.of_list (Spanning.tree_edges tree) in
      let global =
        Array.init (Sh.Part.count parts) (fun _ ->
            let k = if tree_edges = [||] then 0 else Random.State.int st 4 in
            List.init k (fun _ ->
                tree_edges.(Random.State.int st (Array.length tree_edges))))
      in
      let steiner = Sh.Steiner.compute tree parts in
      let kappas = List.init (Sh.Steiner.max_load steiner + 3) Fun.id in
      let sweep kappas =
        Sh.Generic.sweep ~span:"test.sweep" Sh.Generic.Keep_kappa
          ~kappas:(Some kappas) ~global tree parts steiner
      in
      let _, pts = sweep kappas in
      List.for_all2 (fun k p -> point_matches (fst (sweep [ k ])) p) kappas pts)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  ignore check;
  Alcotest.run "invariants"
    [
      ( "metrics",
        qsuite
          [
            prop_blocks_decrease_with_edges;
            prop_congestion_additive_under_union;
            prop_kappa_monotone_congestion;
            prop_kappa_monotone_blocks;
          ] );
      ( "definitions",
        qsuite
          [
            prop_full_steiner_one_block;
            prop_steiner_load_equals_congestion;
            prop_quality_identity;
            prop_empty_blocks_are_sizes;
          ] );
      ( "consistency",
        qsuite
          [
            prop_restricted_steiner_subset;
            prop_frontier_matches_construct;
            prop_sweep_with_global_grants;
            prop_aggregation_rounds_lower_bound;
            prop_mst_weight_independent_of_constructor;
          ] );
      ( "structure",
        qsuite
          [
            prop_fold_preserves_bag_count;
            prop_planarity_stable_under_contraction;
            prop_treewidth_monotone_under_deletion;
            prop_fundamental_cycle_length;
            prop_lca_depth_bound;
            prop_euler_formula;
            prop_dart_face_partition;
            prop_sp_size_counts_edges;
            prop_separator_trivially_sound;
          ] );
    ]
