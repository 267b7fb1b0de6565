(* Tests for the construction memo cache (lib/memo): every memoized
   producer must return the same value with the cache off, cold and warm
   (the determinism contract behind --no-cache byte-identity); the store
   must empty itself at its entry cap; lookups must be safe under the
   Exec domain pool; and the structural fingerprints the producers key on
   must not collide on realistic key families. *)

module FP = Memo.Fingerprint
module G = Core.Graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let reset_cache () =
  Memo.clear ();
  Memo.set_enabled true

let with_cache_off f =
  let was = Memo.enabled () in
  Memo.set_enabled false;
  Fun.protect ~finally:(fun () -> Memo.set_enabled was) f

let same_graph a b = G.n a = G.n b && G.m a = G.m b && G.edges a = G.edges b

(* ---------- cache on / off equality, per memoized producer ---------- *)

(* Run [produce] three ways — cache disabled, cold cache, warm cache —
   and require all three to agree under [eq]; the warm call must have
   scored at least one cache hit. *)
let triple name eq produce () =
  reset_cache ();
  let off = with_cache_off produce in
  let cold = produce () in
  let s0 = Memo.stats () in
  let warm = produce () in
  let s1 = Memo.stats () in
  check (name ^ ": off = cold") true (eq off cold);
  check (name ^ ": cold = warm") true (eq cold warm);
  check (name ^ ": warm call hit the cache") true (s1.Memo.hits > s0.Memo.hits)

let grid_graph () = (Core.Generators.grid 9 7).Core.Generators.graph

(* an unmemoized host, so the warm call's hits are the space's own *)
let host () = Core.Generators.random_tree ~seed:9 64

let producer_cases =
  let graph_eq = same_graph in
  let pair_eq (g1, a1) (g2, a2) = same_graph g1 g2 && a1 = a2 in
  [
    ("gen.grid", triple "gen.grid" graph_eq grid_graph);
    ( "gen.apollonian",
      triple "gen.apollonian" graph_eq (fun () ->
          (Core.Generators.apollonian ~seed:3 40).Core.Generators.graph) );
    ( "gen.series_parallel",
      triple "gen.series_parallel" graph_eq (fun () ->
          Core.Generators.series_parallel ~seed:5 60) );
    ( "gen.k_tree",
      triple "gen.k_tree" pair_eq (fun () ->
          Core.Generators.k_tree ~seed:2 ~k:3 50) );
    ( "gen.torus_grid",
      triple "gen.torus_grid" graph_eq (fun () ->
          Core.Generators.torus_grid 6 5) );
    ( "gen.cycle_with_apex",
      triple "gen.cycle_with_apex" graph_eq (fun () ->
          Core.Generators.cycle_with_apex 30) );
    ( "gen.lower_bound",
      triple "gen.lower_bound" pair_eq (fun () -> Core.Generators.lower_bound 3)
    );
    ( "gen.add_apices",
      triple "gen.add_apices" graph_eq (fun () ->
          Core.Generators.add_apices ~seed:4 (host ()) ~q:2 ~fanout:5) );
    ( "spanning.bfs_tree",
      triple "spanning.bfs_tree"
        (fun a b ->
          same_graph a.Core.Spanning.graph b.Core.Spanning.graph
          && a.Core.Spanning.parent = b.Core.Spanning.parent
          && a.Core.Spanning.parent_edge = b.Core.Spanning.parent_edge
          && a.Core.Spanning.depth = b.Core.Spanning.depth
          && a.Core.Spanning.order = b.Core.Spanning.order)
        (fun () -> Core.Spanning.bfs_tree (host ()) 5) );
    ( "part.grid_rows",
      triple "part.grid_rows" ( = ) (fun () -> Core.Part.grid_rows 9 7) );
    ( "steiner.compute",
      triple "steiner.compute" ( = ) (fun () ->
          let g = grid_graph () in
          let tree = Core.Spanning.bfs_tree g 0 in
          let parts = Core.Part.voronoi ~seed:1 g ~count:6 in
          (Core.Steiner.compute tree parts).Core.Steiner.edges) );
    ( "generic.construct",
      triple "generic.construct" ( = ) (fun () ->
          let g = grid_graph () in
          let tree = Core.Spanning.bfs_tree g 0 in
          let parts = Core.Part.voronoi ~seed:1 g ~count:6 in
          let sc = Core.Generic.construct tree parts in
          ( Core.Shortcut.block_parameter sc,
            Core.Shortcut.congestion sc,
            Core.Shortcut.quality sc,
            Core.Shortcut.total_assigned sc )) );
  ]

(* ---------- the entry cap ---------- *)

let m_blob = Memo.create ~name:"test.blob" ~fp:(fun i -> FP.(empty |> int i))
let computed = ref 0

let blob i =
  Memo.find_or_compute m_blob i (fun () ->
      incr computed;
      Array.make 4 i)

(* [max_entries] distinct keys fit; the next insert empties the store
   first, so only that key survives and the first key must recompute *)
let test_entry_cap () =
  reset_cache ();
  for i = 0 to Memo.max_entries - 1 do
    ignore (blob i)
  done;
  let s0 = Memo.stats () in
  check_int "store is full" Memo.max_entries s0.Memo.entries;
  check_int "blob 7 content" 7 (blob 7).(0);
  let s1 = Memo.stats () in
  check_int "a cached key hits" (s0.Memo.hits + 1) s1.Memo.hits;
  ignore (blob Memo.max_entries);
  let s2 = Memo.stats () in
  check_int "one insert past the cap leaves one entry" 1 s2.Memo.entries;
  check_int "the dropped entries count as evictions"
    (s1.Memo.evictions + Memo.max_entries)
    s2.Memo.evictions;
  let before = !computed in
  check_int "blob 0 content" 0 (blob 0).(0);
  let s3 = Memo.stats () in
  check_int "the first key misses" (s2.Memo.misses + 1) s3.Memo.misses;
  check_int "and recomputes" (before + 1) !computed;
  reset_cache ()

let test_disabled_is_inert () =
  reset_cache ();
  let s0 = Memo.stats () in
  let v = with_cache_off (fun () -> blob 42) in
  check_int "disabled produce runs" 42 v.(0);
  let s1 = Memo.stats () in
  check_int "no hits counted while disabled" s0.Memo.hits s1.Memo.hits;
  check_int "no misses counted while disabled" s0.Memo.misses s1.Memo.misses;
  check_int "no entries stored while disabled" s0.Memo.entries s1.Memo.entries;
  reset_cache ()

(* ---------- domain safety under the Exec pool ---------- *)

let m_pool = Memo.create ~name:"test.pool" ~fp:(fun i -> FP.(empty |> int i))

let test_pool_safety () =
  reset_cache ();
  let f _ x =
    let k = x mod 5 in
    let g =
      Memo.find_or_compute m_pool k (fun () ->
          (Core.Generators.grid (3 + k) 4).Core.Generators.graph)
    in
    (G.n g, G.m g)
  in
  let cells = Array.init 40 (fun i -> i) in
  let seq =
    Exec.Pool.with_pool ~jobs:1 (fun p -> Exec.Pool.map_cells p ~f cells)
  in
  Memo.clear ();
  let par =
    Exec.Pool.with_pool ~jobs:2 (fun p -> Exec.Pool.map_cells p ~f cells)
  in
  check "jobs=2 results identical to jobs=1" true (seq = par);
  (* whatever the race outcomes, the cache is warm for every key now *)
  let s0 = Memo.stats () in
  Array.iter (fun x -> ignore (f 0 x)) cells;
  let s1 = Memo.stats () in
  check_int "all post-pool lookups hit" (s0.Memo.hits + Array.length cells)
    s1.Memo.hits;
  reset_cache ()

(* ---------- fingerprint sanity ---------- *)

let test_fp_framing () =
  let ne a b label = check label true (a <> b) in
  ne
    FP.(empty |> string "ab" |> string "c")
    FP.(empty |> string "a" |> string "bc")
    "string concatenation framing";
  ne
    FP.(empty |> int_list [ 1; 2 ] |> int_list [ 3 ])
    FP.(empty |> int_list [ 1 ] |> int_list [ 2; 3 ])
    "list boundary framing";
  ne FP.(empty |> ints [| 1; 2 |]) FP.(empty |> int 1 |> int 2)
    "array length tag";
  ne FP.(empty |> int 1 |> int 2) FP.(empty |> int 2 |> int 1) "order matters";
  ne FP.(empty |> bool true) FP.(empty |> bool false) "bool tag";
  ne FP.empty FP.(empty |> int 0) "empty vs zero"

let test_fp_no_collisions_on_key_families () =
  let seen = Hashtbl.create 4096 in
  let n = ref 0 in
  let add fp =
    incr n;
    check "fingerprint unique across key families" true
      (not (Hashtbl.mem seen fp));
    Hashtbl.replace seen fp ()
  in
  (* (w, h) grid keys *)
  for w = 1 to 30 do
    for h = 1 to 30 do
      add FP.(empty |> string "grid" |> int w |> int h)
    done
  done;
  (* (seed, n) generator keys *)
  for seed = 0 to 29 do
    for sz = 1 to 30 do
      add FP.(empty |> string "sp" |> int seed |> int sz)
    done
  done;
  (* (seed, k, n) k-tree keys *)
  for seed = 0 to 9 do
    for sz = 1 to 10 do
      List.iter
        (fun k -> add FP.(empty |> int seed |> int k |> int sz))
        [ 1; 2; 3; 4 ]
    done
  done;
  check_int "census" (900 + 900 + 400) !n

let test_fp_graph_fingerprints_distinct () =
  let gs =
    [
      (Core.Generators.grid 9 7).Core.Generators.graph;
      (Core.Generators.grid 7 9).Core.Generators.graph;
      Core.Generators.torus_grid 6 5;
      Core.Generators.series_parallel ~seed:5 60;
      Core.Generators.random_tree ~seed:9 64;
    ]
  in
  let fps = List.map G.fingerprint gs in
  check_int "graph fingerprints all distinct"
    (List.length fps)
    (List.length (List.sort_uniq compare fps))

let () =
  Alcotest.run "memo"
    [
      ( "on-off-equality",
        List.map
          (fun (name, fn) -> Alcotest.test_case name `Quick fn)
          producer_cases );
      ( "bounds",
        [
          Alcotest.test_case "entry cap empties the store" `Quick
            test_entry_cap;
          Alcotest.test_case "disabled cache is inert" `Quick
            test_disabled_is_inert;
        ] );
      ( "domains",
        [
          Alcotest.test_case "pool jobs=2 matches jobs=1" `Quick
            test_pool_safety;
        ] );
      ( "fingerprints",
        [
          Alcotest.test_case "framing and tags" `Quick test_fp_framing;
          Alcotest.test_case "no collisions on key families" `Quick
            test_fp_no_collisions_on_key_families;
          Alcotest.test_case "graph fingerprints distinct" `Quick
            test_fp_graph_fingerprints_distinct;
        ] );
    ]
