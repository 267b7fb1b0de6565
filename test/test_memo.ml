(* Tests for the construction memo cache (lib/memo): every memoized
   producer must return the same value with the cache off, cold and warm
   (the determinism contract behind --no-cache byte-identity); LRU
   eviction must respect a small byte budget; lookups must be safe under
   the Exec domain pool; and the structural fingerprints the producers
   key on must not collide on realistic key families. *)

module FP = Memo.Fingerprint
module G = Core.Graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let default_capacity = 256 * 1024 * 1024

let reset_cache () =
  Memo.clear ();
  Memo.set_capacity_bytes default_capacity;
  Memo.set_enabled true

let same_graph a b = G.n a = G.n b && G.m a = G.m b && G.edges a = G.edges b

(* ---------- cache on / off equality, per memoized producer ---------- *)

(* Run [produce] three ways — cache disabled, cold cache, warm cache —
   and require all three to agree under [eq]; the warm call must have
   scored at least one cache hit. *)
let triple name eq produce () =
  reset_cache ();
  let off = Memo.with_disabled produce in
  let cold = produce () in
  let s0 = Memo.stats () in
  let warm = produce () in
  let s1 = Memo.stats () in
  check (name ^ ": off = cold") true (eq off cold);
  check (name ^ ": cold = warm") true (eq cold warm);
  check (name ^ ": warm call hit the cache") true (s1.Memo.hits > s0.Memo.hits)

let grid_graph () = (Core.Generators.grid 9 7).Core.Generators.graph

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

(* ---------- LRU eviction under a small byte budget ---------- *)

let m_blob = Memo.create ~name:"test.blob" ~fp:(fun i -> FP.(empty |> int i))
let blob i = Memo.find_or_compute m_blob i (fun () -> Array.make 10_000 i)

let test_lru_eviction () =
  reset_cache ();
  (* each value is ~80 KB; a 256 KB budget fits three of them *)
  Memo.set_capacity_bytes (256 * 1024);
  for i = 0 to 9 do
    check_int (Printf.sprintf "blob %d content" i) i (blob i).(5_000)
  done;
  let s = Memo.stats () in
  check "evictions happened" true (s.Memo.evictions > 0);
  check "bytes within budget" true (s.Memo.bytes <= s.Memo.capacity_bytes);
  check "entry count bounded by budget" true (s.Memo.entries <= 3);
  (* the most recent key survived; the oldest was evicted long ago *)
  let s0 = Memo.stats () in
  ignore (blob 9);
  let s1 = Memo.stats () in
  check_int "most-recent key hits" (s0.Memo.hits + 1) s1.Memo.hits;
  ignore (blob 0);
  let s2 = Memo.stats () in
  check_int "evicted key misses" (s1.Memo.misses + 1) s2.Memo.misses;
  (* the hit above refreshed key 9's recency, so re-inserting key 0
     evicted around it *)
  let s3 = Memo.stats () in
  ignore (blob 9);
  check_int "recency refresh protected the hit key" (s3.Memo.hits + 1)
    (Memo.stats ()).Memo.hits;
  reset_cache ()

let m_big = Memo.create ~name:"test.big" ~fp:(fun i -> FP.(empty |> int i))

let test_oversized_value_not_cached () =
  reset_cache ();
  Memo.set_capacity_bytes 1024;
  let produce () = Memo.find_or_compute m_big 1 (fun () -> Array.make 10_000 1) in
  let s0 = Memo.stats () in
  ignore (produce ());
  ignore (produce ());
  let s1 = Memo.stats () in
  check_int "both lookups miss" (s0.Memo.misses + 2) s1.Memo.misses;
  check "nothing was admitted over budget" true
    (s1.Memo.bytes <= s1.Memo.capacity_bytes);
  reset_cache ()

let test_disabled_is_inert () =
  reset_cache ();
  let s0 = Memo.stats () in
  let v = Memo.with_disabled (fun () -> blob 42) in
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
  ne FP.empty FP.(empty |> int 0) "empty vs zero";
  check_int "hex digest width" 16 (String.length (FP.to_hex FP.empty));
  check_int "hex digest width (nonempty)" 16
    (String.length (FP.to_hex FP.(empty |> string "grid" |> int 7)))

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
          Alcotest.test_case "LRU eviction under byte budget" `Quick
            test_lru_eviction;
          Alcotest.test_case "oversized values bypass the cache" `Quick
            test_oversized_value_not_cached;
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
