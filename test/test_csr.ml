(* CSR substrate tests: the flat adjacency layout must agree, order
   included, with a reference adjacency structure rebuilt from the edge
   array — across every generator family — plus the raw edge-list reader
   and RMAT determinism. *)

open Graphlib

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- reference adjacency ----------

   The pre-CSR representation was per-vertex lists of (neighbor, edge id)
   in edge-insertion order.  Rebuild exactly that from iter_edges — the
   edge array is insertion-ordered by contract — and demand the CSR
   accessors reproduce it. *)

let ref_adj g =
  let adj = Array.make (Graph.n g) [] in
  Graph.iter_edges g (fun e u v ->
      adj.(u) <- (v, e) :: adj.(u);
      adj.(v) <- (u, e) :: adj.(v));
  Array.map List.rev adj

let families () =
  [
    ("grid", (Generators.grid 7 9).Generators.graph);
    ("apollonian", (Generators.apollonian ~seed:3 40).Generators.graph);
    ("series-parallel", Generators.series_parallel ~seed:5 60);
    ("ktree", fst (Generators.k_tree ~seed:2 ~k:3 50));
    ("torus", Generators.torus_grid 6 8);
    ("wheel", Generators.cycle_with_apex 30);
    ("erdos-renyi", Generators.erdos_renyi ~seed:9 40 0.2);
    ("rmat", Generators.rmat ~seed:11 ~scale:6 ~edge_factor:4 ());
    ("path", Generators.path 12);
    ("complete", Graph.complete 9);
    ("empty", Graph.of_edges 5 []);
    ("single", Graph.of_edges 1 []);
  ]

let adj_of_iter g v =
  let acc = ref [] in
  Graph.iter_adj g v (fun w e -> acc := (w, e) :: !acc);
  List.rev !acc

let test_adjacency_agrees () =
  List.iter
    (fun (name, g) ->
      let reference = ref_adj g in
      for v = 0 to Graph.n g - 1 do
        let expect = reference.(v) in
        check_int (name ^ ": degree") (List.length expect) (Graph.degree g v);
        check (name ^ ": iter_adj order") true (adj_of_iter g v = expect);
        check
          (name ^ ": neighbors order")
          true
          (Array.to_list (Graph.neighbors g v) = List.map fst expect);
        check_int
          (name ^ ": fold_adj eid sum")
          (List.fold_left (fun acc (_, e) -> acc + e) 0 expect)
          (Graph.fold_adj g v ~init:0 ~f:(fun acc _ e -> acc + e));
        (* positional accessors walk the same segment *)
        let off = Graph.adj_offset g v in
        List.iteri
          (fun i (w, e) ->
            check_int (name ^ ": adj_dst") w (Graph.adj_dst g (off + i));
            check_int (name ^ ": adj_eid") e (Graph.adj_eid g (off + i)))
          expect;
        check_int
          (name ^ ": segment width")
          (Graph.degree g v)
          (Graph.adj_offset g (v + 1) - off)
      done)
    (families ())

(* Graphs too large for the n^2 sweep below: a hub segment of more than
   2^15 positions and a graph with 2m > 2^16 (the sizes where seal once
   switched sort paths), and the benchmark's raw grid stream (every edge
   in both orientations, plus self-loops the builder drops). *)
let big_families () =
  let star =
    let leaves = 40_000 in
    let b = Graph.Builder.create (leaves + 1) in
    (* leaves in scrambled order and both orientations, so the hub's
       insertion order is far from sorted *)
    for i = 0 to leaves - 1 do
      let leaf = 1 + (i * 7919 mod leaves) in
      if i land 1 = 0 then Graph.Builder.add_edge b 0 leaf
      else Graph.Builder.add_edge b leaf 0
    done;
    Graph.Builder.build b
  in
  let raw_grid w h =
    let b = Graph.Builder.create (w * h) in
    for v = 0 to (w * h) - 1 do
      Graph.Builder.add_edge b v v;
      if (v mod w) + 1 < w then begin
        Graph.Builder.add_edge b v (v + 1);
        Graph.Builder.add_edge b (v + 1) v
      end;
      if v + w < w * h then begin
        Graph.Builder.add_edge b v (v + w);
        Graph.Builder.add_edge b (v + w) v
      end
    done;
    Graph.Builder.build b
  in
  [
    ("star-40000", star);
    ("rmat-s14", Generators.rmat ~seed:17 ~scale:14 ~edge_factor:8 ());
    ("raw-grid-90x90", raw_grid 90 90);
  ]

(* find_edge_id against a linear iter_adj scan of each vertex: every
   neighbor, the absent ids next to each neighbor id, and 0 and n-1 *)
let check_lookups_by_scan name g =
  let n = Graph.n g in
  let scan = Array.make n (-1) in
  for u = 0 to n - 1 do
    Graph.iter_adj g u (fun w e -> scan.(w) <- e);
    let query v =
      if v >= 0 && v < n then begin
        let got = Graph.find_edge_id g u v in
        if got <> scan.(v) then
          check_int
            (Printf.sprintf "%s: find_edge_id %d %d" name u v)
            scan.(v) got
      end
    in
    query 0;
    query (n - 1);
    Graph.iter_adj g u (fun w _ ->
        query (w - 1);
        query w;
        query (w + 1));
    Graph.iter_adj g u (fun w _ -> scan.(w) <- -1)
  done

let test_edge_lookup_agrees () =
  List.iter
    (fun (name, g) ->
      let reference = ref_adj g in
      let n = Graph.n g in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let expect = List.exists (fun (w, _) -> w = v) reference.(u) in
          check (name ^ ": mem_edge") expect (Graph.mem_edge g u v);
          check (name ^ ": exists_adj") expect
            (Graph.exists_adj g u (fun w _ -> w = v));
          match Graph.find_edge g u v with
          | None ->
              check (name ^ ": find_edge none iff absent") false expect;
              check_int (name ^ ": find_edge_id absent") (-1)
                (Graph.find_edge_id g u v)
          | Some e ->
              check (name ^ ": find_edge some iff present") true expect;
              check_int (name ^ ": find_edge_id present") e
                (Graph.find_edge_id g u v);
              let a, b = Graph.edge g e in
              check (name ^ ": found edge joins u v") true
                ((a = u && b = v) || (a = v && b = u));
              check_int (name ^ ": other_endpoint") v
                (Graph.other_endpoint g e u)
        done
      done)
    (families ());
  let big = big_families () in
  let big_g name = List.assoc name big in
  check_int "star hub segment" 40_000 (Graph.degree (big_g "star-40000") 0);
  check "rmat-s14: 2m > 2^16" true (2 * Graph.m (big_g "rmat-s14") > 1 lsl 16);
  check_int "raw grid dedups to the 90x90 grid" (2 * 90 * 89)
    (Graph.m (big_g "raw-grid-90x90"));
  List.iter (fun (name, g) -> check_lookups_by_scan name g) big

(* ---------- traversal orders ---------- *)

let ref_bfs_order adj src =
  let n = Array.length adj in
  let seen = Array.make n false in
  let q = Queue.create () in
  let acc = ref [] in
  seen.(src) <- true;
  Queue.push src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    acc := v :: !acc;
    List.iter
      (fun (w, _) ->
        if not seen.(w) then begin
          seen.(w) <- true;
          Queue.push w q
        end)
      adj.(v)
  done;
  Array.of_list (List.rev !acc)

let ref_dfs_order adj src =
  let n = Array.length adj in
  let seen = Array.make n false in
  let acc = ref [] in
  let rec visit v =
    seen.(v) <- true;
    acc := v :: !acc;
    List.iter (fun (w, _) -> if not seen.(w) then visit w) adj.(v)
  in
  visit src;
  Array.of_list (List.rev !acc)

let test_traversal_orders () =
  List.iter
    (fun (name, g) ->
      if Graph.n g > 0 then begin
        let reference = ref_adj g in
        check (name ^ ": dfs preorder") true
          (Traversal.dfs_order g 0 = ref_dfs_order reference 0);
        if Traversal.is_connected g then begin
          let t = Spanning.bfs_tree g 0 in
          check (name ^ ": bfs visit order") true
            (t.Spanning.order = ref_bfs_order reference 0)
        end
      end)
    (families ())

(* ---------- builder semantics (random inputs) ---------- *)

let prop_of_edges_first_occurrence =
  QCheck.Test.make ~name:"of_edges keeps first occurrences in input order"
    ~count:300
    QCheck.(
      pair (int_range 1 12)
        (small_list (pair (int_range 0 11) (int_range 0 11))))
    (fun (n, pairs) ->
      let pairs = List.filter (fun (u, v) -> u < n && v < n) pairs in
      let g = Graph.of_edges n pairs in
      let seen = Hashtbl.create 16 in
      let expect =
        List.filter
          (fun (u, v) ->
            u <> v
            &&
            let key = (min u v, max u v) in
            if Hashtbl.mem seen key then false
            else begin
              Hashtbl.add seen key ();
              true
            end)
          pairs
      in
      Graph.edges g = Array.of_list expect)

let prop_random_adjacency_agrees =
  QCheck.Test.make ~name:"iter_adj matches reference adjacency on random input"
    ~count:200
    QCheck.(
      pair (int_range 1 15)
        (small_list (pair (int_range 0 14) (int_range 0 14))))
    (fun (n, pairs) ->
      let pairs = List.filter (fun (u, v) -> u < n && v < n) pairs in
      let g = Graph.of_edges n pairs in
      let reference = ref_adj g in
      List.for_all
        (fun v -> adj_of_iter g v = reference.(v))
        (List.init n (fun i -> i)))

(* ---------- RMAT ---------- *)

let test_rmat_deterministic () =
  let g1 = Generators.rmat ~seed:5 ~scale:7 ~edge_factor:5 () in
  (* same parameters, a second build: the sampler itself must replay *)
  let g2 = Generators.rmat ~seed:5 ~scale:7 ~edge_factor:5 () in
  check "same edges on a rebuild" true (Graph.edges g1 = Graph.edges g2);
  check "same fingerprint" true
    (Graph.fingerprint g1 = Graph.fingerprint g2);
  (* explicit states: equal Faults.Rng streams must give equal graphs *)
  let gen st = Generators.rmat ~state:st ~seed:0 ~scale:6 ~edge_factor:4 () in
  let h1 = gen (Faults.Rng.named ~seed:42 "csr.rmat") in
  let h2 = gen (Faults.Rng.named ~seed:42 "csr.rmat") in
  let h3 = gen (Faults.Rng.named ~seed:43 "csr.rmat") in
  check "equal streams, equal graphs" true (Graph.edges h1 = Graph.edges h2);
  check "different stream differs" true (Graph.edges h1 <> Graph.edges h3)

let test_rmat_shape () =
  let scale = 7 and edge_factor = 6 in
  let g = Generators.rmat ~seed:1 ~scale ~edge_factor () in
  check_int "vertex count is 2^scale" (1 lsl scale) (Graph.n g);
  check "dedup keeps m at or under the sample count" true
    (Graph.m g <= edge_factor * (1 lsl scale));
  check "sampling produced a real graph" true (Graph.m g > 0);
  Alcotest.check_raises "scale bounds checked"
    (Invalid_argument "Generators.rmat: scale must be in 1..30") (fun () ->
      ignore (Generators.rmat ~seed:1 ~scale:0 ~edge_factor:2 ()))

(* ---------- raw edge lists ---------- *)

let test_edge_list_basic () =
  let g =
    Io.of_edge_list "# comment\n0 1\n% matrix-market comment\n1\t2\t3.5\n\n2 0\n"
  in
  check_int "n inferred from max id" 3 (Graph.n g);
  check_int "m" 3 (Graph.m g);
  check "edges present" true
    (Graph.mem_edge g 0 1 && Graph.mem_edge g 1 2 && Graph.mem_edge g 2 0);
  let g2 = Io.of_edge_list ~n:10 "0 1\n" in
  check_int "explicit larger n wins" 10 (Graph.n g2);
  let g3 = Io.of_edge_list "0 1\r\n1 2\r\n" in
  check_int "CRLF tolerated" 2 (Graph.m g3)

let test_edge_list_errors () =
  Alcotest.check_raises "wrong field count names the line"
    (Invalid_argument "Io.of_edge_list: line 2: expected \"u v\" (got 1 fields)")
    (fun () -> ignore (Io.of_edge_list "0 1\n7\n"));
  Alcotest.check_raises "non-numeric token"
    (Invalid_argument "Io.of_edge_list: line 1: not a vertex id: \"x\"")
    (fun () -> ignore (Io.of_edge_list "x 2\n"));
  Alcotest.check_raises "negative id"
    (Invalid_argument "Io.of_edge_list: line 3: negative vertex id \"-4\"")
    (fun () -> ignore (Io.of_edge_list "0 1\n1 2\n-4 2\n"));
  Alcotest.check_raises "undersized explicit n"
    (Invalid_argument "Io.of_edge_list: n = 2 but input mentions vertex 5")
    (fun () -> ignore (Io.of_edge_list ~n:2 "0 5\n"))

let test_edge_list_roundtrip () =
  let g = (Generators.grid 5 6).Generators.graph in
  let buf = Buffer.create 256 in
  Graph.iter_edges g (fun _ u v ->
      Buffer.add_string buf (Printf.sprintf "%d\t%d\n" u v));
  let g' = Io.of_edge_list ~n:(Graph.n g) (Buffer.contents buf) in
  check "same edge array" true (Graph.edges g = Graph.edges g');
  (* the native writer sees the two graphs as the same object *)
  check "writer output identical" true (Io.to_string g = Io.to_string g')

let prop_edge_list_roundtrip =
  QCheck.Test.make ~name:"edge-list round-trips any built graph" ~count:150
    QCheck.(
      pair (int_range 1 12)
        (small_list (pair (int_range 0 11) (int_range 0 11))))
    (fun (n, pairs) ->
      let pairs = List.filter (fun (u, v) -> u < n && v < n) pairs in
      let g = Graph.of_edges n pairs in
      let buf = Buffer.create 64 in
      Graph.iter_edges g (fun _ u v ->
          Buffer.add_string buf (Printf.sprintf "%d %d\n" u v));
      let g' = Io.of_edge_list ~n (Buffer.contents buf) in
      Graph.edges g = Graph.edges g')

let test_rusage_parse () =
  check "VmHWM tab-separated" true
    (Obs.Rusage.parse_vmhwm "VmHWM:\t  123456 kB" = Some 123456);
  check "other lines ignored" true
    (Obs.Rusage.parse_vmhwm "VmRSS:\t    9999 kB" = None);
  check "live probe works on linux" true
    (match Obs.Rusage.max_rss_kb () with Some v -> v > 0 | None -> true)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "csr"
    [
      ( "adjacency",
        [
          Alcotest.test_case "accessors match reference" `Quick
            test_adjacency_agrees;
          Alcotest.test_case "edge lookups match reference" `Quick
            test_edge_lookup_agrees;
          Alcotest.test_case "BFS/DFS orders match reference" `Quick
            test_traversal_orders;
        ]
        @ qsuite [ prop_of_edges_first_occurrence; prop_random_adjacency_agrees ]
      );
      ( "rmat",
        [
          Alcotest.test_case "deterministic" `Quick test_rmat_deterministic;
          Alcotest.test_case "shape" `Quick test_rmat_shape;
        ] );
      ( "edge-list",
        [
          Alcotest.test_case "parsing" `Quick test_edge_list_basic;
          Alcotest.test_case "errors" `Quick test_edge_list_errors;
          Alcotest.test_case "round-trip" `Quick test_edge_list_roundtrip;
        ]
        @ qsuite [ prop_edge_list_roundtrip ] );
      ( "accounting",
        [
          Alcotest.test_case "rusage parse" `Quick test_rusage_parse;
        ] );
    ]
