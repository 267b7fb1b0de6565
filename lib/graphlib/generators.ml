type planar = {
  graph : Graph.t;
  coords : (float * float) array;
  outer_face : int array;
}

(* Memoized families (DESIGN.md section 10): every generator is a pure
   function of (family, params, seed), and the families that some
   workload builds twice with one key keep a cache space, so the repeat
   build fetches.  Cached values are shared between callers — planar
   records, graphs and attachment arrays are never mutated by consumers;
   the one caller-owned array (k_tree's elimination order) is copied out
   of the cache.  The rest stay unmemoized: the trivial families (path,
   cycle, star, wheel, ...) are cheaper than a lookup, and no workload
   rebuilds random_tree, erdos_renyi or rmat with the same key. *)
module FP = Memo.Fingerprint

let m_grid : (int * int, planar) Memo.t =
  Memo.create ~name:"gen.grid" ~fp:(fun (w, h) -> FP.(empty |> int w |> int h))

let m_apollonian : (int * int, planar) Memo.t =
  Memo.create ~name:"gen.apollonian" ~fp:(fun (seed, n) ->
      FP.(empty |> int seed |> int n))

let m_series_parallel : (int * int, Graph.t) Memo.t =
  Memo.create ~name:"gen.series_parallel" ~fp:(fun (seed, n) ->
      FP.(empty |> int seed |> int n))

let m_k_tree : (int * int * int, Graph.t * int array) Memo.t =
  Memo.create ~name:"gen.k_tree" ~fp:(fun (seed, k, n) ->
      FP.(empty |> int seed |> int k |> int n))

let m_torus_grid : (int * int, Graph.t) Memo.t =
  Memo.create ~name:"gen.torus_grid" ~fp:(fun (w, h) ->
      FP.(empty |> int w |> int h))

let m_cycle_with_apex : (int, Graph.t) Memo.t =
  Memo.create ~name:"gen.cycle_with_apex" ~fp:(fun n -> FP.(empty |> int n))

let m_lower_bound : (int, Graph.t * int array) Memo.t =
  Memo.create ~name:"gen.lower_bound" ~fp:(fun p -> FP.(empty |> int p))

let m_add_apices : (int * Memo.Fingerprint.t * int * int, Graph.t) Memo.t =
  Memo.create ~name:"gen.add_apices" ~fp:(fun (seed, gfp, q, fanout) ->
      FP.(empty |> int seed |> int64 gfp |> int q |> int fanout))

let path n = Graph.of_edges n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let cycle n =
  if n < 3 then invalid_arg "Generators.cycle: need n >= 3";
  Graph.of_edges n (List.init n (fun i -> (i, (i + 1) mod n)))

let star n = Graph.of_edges n (List.init (max 0 (n - 1)) (fun i -> (0, i + 1)))

let wheel n =
  if n < 4 then invalid_arg "Generators.wheel: need n >= 4";
  let outer = n - 1 in
  let rim = List.init outer (fun i -> (i, (i + 1) mod outer)) in
  let spokes = List.init outer (fun i -> (i, outer)) in
  Graph.of_edges n (rim @ spokes)

let complete_bipartite a b =
  let acc = ref [] in
  for i = 0 to a - 1 do
    for j = 0 to b - 1 do
      acc := (i, a + j) :: !acc
    done
  done;
  Graph.of_edges (a + b) !acc

let binary_tree n = Graph.of_edges n (List.init (max 0 (n - 1)) (fun i -> (i + 1, i / 2)))

let petersen () =
  let outer = List.init 5 (fun i -> (i, (i + 1) mod 5)) in
  let spokes = List.init 5 (fun i -> (i, i + 5)) in
  let inner = List.init 5 (fun i -> (i + 5, ((i + 2) mod 5) + 5)) in
  Graph.of_edges 10 (outer @ spokes @ inner)

let random_tree ~seed n =
  let st = Random.State.make [| seed |] in
  Graph.of_edges n (List.init (max 0 (n - 1)) (fun i -> (i + 1, Random.State.int st (i + 1))))

let erdos_renyi ~seed n p =
  let st = Random.State.make [| seed |] in
  let rec attempt tries =
    let acc = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Random.State.float st 1.0 < p then acc := (u, v) :: !acc
      done
    done;
    (* splice in a random spanning tree if disconnected, after a few tries *)
    let g = Graph.of_edges n !acc in
    if Traversal.is_connected g then g
    else if tries > 0 then attempt (tries - 1)
    else begin
      let spine = List.init (n - 1) (fun i -> (i + 1, Random.State.int st (i + 1))) in
      Graph.of_edges n (spine @ !acc)
    end
  in
  attempt 5

let grid w h =
  if w < 1 || h < 1 then invalid_arg "Generators.grid";
  Memo.find_or_compute m_grid (w, h) @@ fun () ->
  let id x y = (y * w) + x in
  let acc = ref [] in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      if x + 1 < w then acc := (id x y, id (x + 1) y) :: !acc;
      if y + 1 < h then acc := (id x y, id x (y + 1)) :: !acc
    done
  done;
  let graph = Graph.of_edges (w * h) !acc in
  let coords = Array.init (w * h) (fun v -> (float_of_int (v mod w), float_of_int (v / w))) in
  (* outer boundary, counterclockwise starting at (0,0) *)
  let boundary = ref [] in
  for x = 0 to w - 1 do
    boundary := id x 0 :: !boundary
  done;
  for y = 1 to h - 1 do
    boundary := id (w - 1) y :: !boundary
  done;
  if h > 1 then
    for x = w - 2 downto 0 do
      boundary := id x (h - 1) :: !boundary
    done;
  if w > 1 then
    for y = h - 2 downto 1 do
      boundary := id 0 y :: !boundary
    done;
  { graph; coords; outer_face = Array.of_list (List.rev !boundary) }

let apollonian ~seed n =
  if n < 3 then invalid_arg "Generators.apollonian: need n >= 3";
  Memo.find_or_compute m_apollonian (seed, n) @@ fun () ->
  let st = Random.State.make [| seed |] in
  let coords = Array.make n (0.0, 0.0) in
  coords.(0) <- (0.0, 0.0);
  coords.(1) <- (1.0, 0.0);
  coords.(2) <- (0.5, 1.0);
  let edges = ref [ (0, 1); (1, 2); (0, 2) ] in
  (* faces as a growable array of triangles *)
  let faces = ref [| (0, 1, 2) |] in
  let nfaces = ref 1 in
  let push_face f =
    if !nfaces = Array.length !faces then begin
      let bigger = Array.make (max 8 (2 * !nfaces)) (0, 0, 0) in
      Array.blit !faces 0 bigger 0 !nfaces;
      faces := bigger
    end;
    !faces.(!nfaces) <- f;
    incr nfaces
  in
  for v = 3 to n - 1 do
    let i = Random.State.int st !nfaces in
    let a, b, c = !faces.(i) in
    let (ax, ay), (bx, by), (cx, cy) = (coords.(a), coords.(b), coords.(c)) in
    coords.(v) <- ((ax +. bx +. cx) /. 3.0, (ay +. by +. cy) /. 3.0);
    edges := (v, a) :: (v, b) :: (v, c) :: !edges;
    !faces.(i) <- (a, b, v);
    push_face (b, c, v);
    push_face (a, c, v)
  done;
  { graph = Graph.of_edges n !edges; coords; outer_face = [| 0; 1; 2 |] }

let series_parallel ~seed n =
  if n < 2 then invalid_arg "Generators.series_parallel: need n >= 2";
  Memo.find_or_compute m_series_parallel (seed, n) @@ fun () ->
  let st = Random.State.make [| seed |] in
  (* Grow by repeatedly picking an existing edge (u,v) and either subdividing
     it through a new vertex (series) or adding a new vertex adjacent to both
     endpoints (parallel-of-series). Both preserve series-parallelness. *)
  let edges = ref [ (0, 1) ] in
  let medges = ref 1 in
  let edge_arr = ref [| (0, 1) |] in
  let push (u, v) =
    edges := (u, v) :: !edges;
    if !medges = Array.length !edge_arr then begin
      let bigger = Array.make (max 8 (2 * !medges)) (0, 0) in
      Array.blit !edge_arr 0 bigger 0 !medges;
      edge_arr := bigger
    end;
    !edge_arr.(!medges) <- (u, v);
    incr medges
  in
  for w = 2 to n - 1 do
    let u, v = !edge_arr.(Random.State.int st !medges) in
    if Random.State.bool st then begin
      (* series: w subdivides an attachment between u and v *)
      push (u, w);
      push (w, v)
    end
    else
      (* dangling series extension keeps SP-ness too *)
      push (u, w)
  done;
  Graph.of_edges n !edges

let k_tree_build ~seed ~k n =
  let st = Random.State.make [| seed |] in
  let edges = ref [] in
  (* cliques.(i) = the k-clique vertex v was attached to, as an array *)
  let cliques = Array.make n [||] in
  for u = 0 to k do
    for v = u + 1 to k do
      edges := (u, v) :: !edges
    done
  done;
  (* seed cliques: all k-subsets of the initial K_{k+1} represented lazily by
     remembering, for each added vertex, its attachment clique *)
  for v = k + 1 to n - 1 do
    (* choose a host: either one of the first k+1 vertices' implicit clique or
       a previously attached vertex's clique with one element swapped *)
    let host = Random.State.int st v in
    let clique =
      if host <= k then Array.init k (fun i -> if i < host then i else i + 1)
      else begin
        let base = cliques.(host) in
        (* replace a random member of base with host itself: still a k-clique *)
        let c = Array.copy base in
        c.(Random.State.int st k) <- host;
        (* ensure distinct entries: if host already present, fall back *)
        let sorted = Array.copy c in
        Array.sort Int.compare sorted;
        let dup = ref false in
        for i = 0 to k - 2 do
          if sorted.(i) = sorted.(i + 1) then dup := true
        done;
        if !dup then base else c
      end
    in
    cliques.(v) <- clique;
    Array.iter (fun u -> edges := (u, v) :: !edges) clique
  done;
  let elim = Array.init n (fun i -> n - 1 - i) in
  (Graph.of_edges n !edges, elim)

let k_tree ~seed ~k n =
  if n < k + 1 then invalid_arg "Generators.k_tree: need n >= k+1";
  let g, elim =
    Memo.find_or_compute m_k_tree (seed, k, n) (fun () -> k_tree_build ~seed ~k n)
  in
  (* the elimination order is caller-owned; hand out a private copy *)
  (g, Array.copy elim)

let torus_grid w h =
  if w < 3 || h < 3 then invalid_arg "Generators.torus_grid: need w,h >= 3";
  Memo.find_or_compute m_torus_grid (w, h) @@ fun () ->
  let id x y = (y * w) + x in
  let acc = ref [] in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      acc := (id x y, id ((x + 1) mod w) y) :: !acc;
      acc := (id x y, id x ((y + 1) mod h)) :: !acc
    done
  done;
  Graph.of_edges (w * h) !acc

let add_apices ~seed g ~q ~fanout =
  Memo.find_or_compute m_add_apices (seed, Graph.fingerprint g, q, fanout)
  @@ fun () ->
  let st = Random.State.make [| seed |] in
  let n = Graph.n g in
  let edges = Graph.fold_edges g ~init:[] ~f:(fun acc _ u v -> (u, v) :: acc) in
  let extra = ref [] in
  for a = 0 to q - 1 do
    let apex = n + a in
    (* guarantee connectivity *)
    extra := (apex, Random.State.int st n) :: !extra;
    for _ = 2 to fanout do
      extra := (apex, Random.State.int st n) :: !extra
    done;
    for b = 0 to a - 1 do
      extra := (apex, n + b) :: !extra
    done
  done;
  Graph.of_edges (n + q) (edges @ !extra)

let cycle_with_apex n =
  if n < 4 then invalid_arg "Generators.cycle_with_apex: need n >= 4";
  Memo.find_or_compute m_cycle_with_apex n @@ fun () ->
  let rim = List.init (n - 1) (fun i -> (i, (i + 1) mod (n - 1))) in
  let spokes = List.init (n - 1) (fun i -> (i, n - 1)) in
  Graph.of_edges n (rim @ spokes)

let lower_bound_build p =
  if p < 2 then invalid_arg "Generators.lower_bound: need p >= 2";
  Memo.find_or_compute m_lower_bound p @@ fun () ->
  (* vertices: p paths of p vertices each: v(i,j) = i*p + j
     then a balanced binary tree over the p columns *)
  let base = p * p in
  let path_vertex i j = (i * p) + j in
  let edges = ref [] in
  for i = 0 to p - 1 do
    for j = 0 to p - 2 do
      edges := (path_vertex i j, path_vertex i (j + 1)) :: !edges
    done
  done;
  (* binary tree with p leaves: heap-numbered tree of 2p-1 nodes; node t -> base + t *)
  let tree_nodes = (2 * p) - 1 in
  for t = 1 to tree_nodes - 1 do
    edges := (base + t, base + ((t - 1) / 2)) :: !edges
  done;
  (* leaves are the last p heap nodes: tree node p-1+j is leaf j *)
  for j = 0 to p - 1 do
    let leaf = base + (p - 1) + j in
    for i = 0 to p - 1 do
      edges := (leaf, path_vertex i j) :: !edges
    done
  done;
  let g = Graph.of_edges (base + tree_nodes) !edges in
  (g, Array.init p (fun i -> path_vertex i 0))

let lower_bound p =
  let g, attach = lower_bound_build p in
  (g, Array.copy attach)

let lower_bound_parts p =
  let g, _ = lower_bound_build p in
  let parts = List.init p (fun i -> List.init p (fun j -> (i * p) + j)) in
  (g, parts)

(* -- RMAT / power-law stress family (non-minor-free) -- *)

(* One level's quadrant as the two-bit int [(bu lsl 1) lor bv], for a draw
   [r] against thresholds ta <= tab <= tabc (rounded sums of non-negative
   probabilities are monotone).  The if-chain
     r < ta -> (0,0) | r < tab -> (0,1) | r < tabc -> (1,0) | else (1,1)
   is bu = [r >= tab], bv = [r >= ta] xor [r >= tab] xor [r >= tabc]:
   the same three comparisons, so the bits agree for every r, but without
   the unpredictable 57/19/19/5 branch. *)
let[@inline] quadrant (r : float) ~ta ~tab ~tabc =
  let bu = Bool.to_int (r >= tab) in
  (bu lsl 1) lor (Bool.to_int (r >= ta) lxor bu lxor Bool.to_int (r >= tabc))

(* the classic recursive-matrix generator: each of [edge_factor * 2^scale]
   raw edges picks one quadrant per scale level with probabilities
   (a, b, c, 1-a-b-c), descending into the adjacency matrix.  Skewed
   quadrants give the heavy-tailed degree distribution; self-loops and
   duplicates are dropped by the builder, so m comes out slightly below
   edge_factor * n. *)
let rmat_build_boxed st ~scale ~edge_factor ~a ~b ~c =
  let n = 1 lsl scale in
  let target = edge_factor * n in
  let bld = Graph.Builder.create ~edges_hint:target n in
  let ta = a and tab = a +. b and tabc = a +. b +. c in
  let u = ref 0 and v = ref 0 in
  for _ = 1 to target do
    u := 0;
    v := 0;
    for _ = 1 to scale do
      let q = quadrant (Random.State.float st 1.0) ~ta ~tab ~tabc in
      u := (!u lsl 1) lor (q lsr 1);
      v := (!v lsl 1) lor (q land 1)
    done;
    if !u <> !v then Graph.Builder.add_edge bld !u !v
  done;
  Graph.Builder.build bld

(* Scale-path sampler: the same stream, drawn unboxed.  Every level of
   every edge draws [Random.State.float st 1.0] = d * 2^-53 with
   d = [Fastrand.draw53 st], and comparing d * 2^-53 < q is exact iff
   float_of_int d < q * 2^53, because d < 2^53 makes [float_of_int]
   lossless and scaling by a power of two only moves the exponent.  The
   thresholds are the SAME rounded sums the boxed path compares against
   (a +. b, then a +. b +. c), scaled once outside the loop — so the
   quadrant decisions, and hence the generated graph, are bit-identical
   while the per-draw boxed Int64/float garbage disappears from the S1
   build span. *)
let rmat_build_fast st ~scale ~edge_factor ~a ~b ~c =
  let n = 1 lsl scale in
  let target = edge_factor * n in
  let bld = Graph.Builder.create ~edges_hint:target n in
  let ta = a *. 0x1.p53 in
  let tab = (a +. b) *. 0x1.p53 in
  let tabc = (a +. b +. c) *. 0x1.p53 in
  let u = ref 0 and v = ref 0 in
  for _ = 1 to target do
    u := 0;
    v := 0;
    for _ = 1 to scale do
      let q = quadrant (float_of_int (Fastrand.draw53 st)) ~ta ~tab ~tabc in
      u := (!u lsl 1) lor (q lsr 1);
      v := (!v lsl 1) lor (q land 1)
    done;
    if !u <> !v then Graph.Builder.add_edge bld !u !v
  done;
  Graph.Builder.build bld

let rmat ?state ?(a = 0.57) ?(b = 0.19) ?(c = 0.19) ~seed ~scale ~edge_factor () =
  if scale < 1 || scale > 30 then invalid_arg "Generators.rmat: scale must be in 1..30";
  if edge_factor < 1 then invalid_arg "Generators.rmat: edge_factor must be >= 1";
  if a < 0.0 || b < 0.0 || c < 0.0 || a +. b +. c > 1.0 then
    invalid_arg "Generators.rmat: quadrant probabilities must be >= 0 and sum <= 1";
  let st = match state with Some st -> st | None -> Random.State.make [| seed |] in
  if Fastrand.active () then rmat_build_fast st ~scale ~edge_factor ~a ~b ~c
  else rmat_build_boxed st ~scale ~edge_factor ~a ~b ~c
