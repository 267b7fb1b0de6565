(* Integer-kernel tests (DESIGN.md section 15): the radix sort must agree
   with [Array.sort Int.compare] on non-negative keys and with the
   unsigned-63 oracle on arbitrary keys, pair sorts must be stable, the
   bitset must behave like a set, Boruvka must return the identical
   unique forest as Kruskal across every CSR test family and as the
   previous kernels of reference.ml on random multigraphs, the MST entry
   check must refuse NaN and short weight arrays, the flat
   BFS/DFS worklists must reproduce the Queue-reference orders, the
   Fastrand draw must replay the stdlib stream, and seal must index the
   edges of a large graph correctly. *)

open Graphlib
module Ba = Bigarray.Array1

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let ba_of_array a =
  let b = Sort.ints (Array.length a) in
  Array.iteri (fun i x -> Ba.set b i x) a;
  b

let array_of_ba b = Array.init (Ba.dim b) (Ba.get b)

(* Same generator families as test_csr.ml: every CSR code path the
   substrate tests exercise, the MST and BFS kernels must survive too. *)
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

(* ---------- radix sort vs comparison sorts ---------- *)

let prop_sort_nonneg =
  QCheck.Test.make ~name:"radix sort = Array.sort Int.compare on naturals"
    ~count:300
    QCheck.(list (int_bound max_int))
    (fun l ->
      let a = Array.of_list l in
      let expect = Array.copy a in
      Array.sort Int.compare expect;
      let b = ba_of_array a in
      Sort.sort b;
      array_of_ba b = expect)

let prop_sort_unsigned =
  QCheck.Test.make ~name:"radix sort = unsigned_compare oracle on any ints"
    ~count:300
    QCheck.(list int)
    (fun l ->
      let a = Array.of_list l in
      let expect = Array.copy a in
      Array.sort Sort.unsigned_compare expect;
      let b = ba_of_array a in
      Sort.sort b;
      array_of_ba b = expect)

(* Reusing one scratch across many sorts must not change results. *)
let prop_sort_scratch_reuse =
  QCheck.Test.make ~name:"sort with shared scratch = fresh scratch" ~count:100
    QCheck.(pair (list (int_bound 1000)) (list (int_bound max_int)))
    (fun (l1, l2) ->
      let s = Sort.create_scratch () in
      List.for_all
        (fun l ->
          let a = Array.of_list l in
          let expect = Array.copy a in
          Array.sort Int.compare expect;
          let b = ba_of_array a in
          Sort.sort ~scratch:s b;
          array_of_ba b = expect)
        [ l1; l2; l1 @ l2 ])

let prop_sort_pairs_permutation =
  QCheck.Test.make ~name:"sort_pairs permutes payload consistently with keys"
    ~count:300
    QCheck.(list (int_bound 255))
    (fun l ->
      let keys = Array.of_list l in
      let n = Array.length keys in
      let kb = ba_of_array keys in
      let pb = ba_of_array (Array.init n Fun.id) in
      Sort.sort_pairs kb pb;
      let sorted_pairs =
        Array.init n (fun i -> (Ba.get kb i, Ba.get pb i))
      in
      (* each output key must be the input key at the payload's index *)
      Array.for_all (fun (k, p) -> p >= 0 && p < n && keys.(p) = k) sorted_pairs
      && begin
           (* payload is a permutation of 0..n-1 *)
           let seen = Array.make n false in
           Array.iter (fun (_, p) -> seen.(p) <- true) sorted_pairs;
           Array.for_all Fun.id seen
         end)

let prop_sort_pairs_stable =
  QCheck.Test.make
    ~name:"sort_pairs is stable: equal keys keep payload input order"
    ~count:300
    QCheck.(list (int_bound 7))
    (* tiny key range forces many duplicates *)
      (fun l ->
      let keys = Array.of_list l in
      let n = Array.length keys in
      let kb = ba_of_array keys in
      let pb = ba_of_array (Array.init n Fun.id) in
      Sort.sort_pairs kb pb;
      let ok = ref true in
      for i = 1 to n - 1 do
        if Ba.get kb i = Ba.get kb (i - 1) && Ba.get pb i <= Ba.get pb (i - 1)
        then ok := false
      done;
      !ok)

let prop_float_key_monotone =
  QCheck.Test.make
    ~name:"float_key preserves order of non-negative floats" ~count:500
    QCheck.(pair (float_bound_exclusive 1e300) (float_bound_exclusive 1e300))
    (fun (a, b) ->
      let a = Float.abs a and b = Float.abs b in
      Int.compare (Float.compare a b) 0
      = Int.compare (Sort.unsigned_compare (Sort.float_key a) (Sort.float_key b)) 0)

(* ---------- bitset vs Hashtbl ---------- *)

let prop_bitset_matches_hashtbl =
  QCheck.Test.make ~name:"bitset = Hashtbl set semantics under random ops"
    ~count:200
    QCheck.(list (pair (int_bound 3) (int_bound 63)))
    (fun ops ->
      let n = 64 in
      let bs = Bitset.create n in
      let ht = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun (op, i) ->
          match op with
          | 0 ->
              Bitset.add bs i;
              Hashtbl.replace ht i ()
          | 1 ->
              Bitset.remove bs i;
              Hashtbl.remove ht i
          | 2 ->
              let fresh = Bitset.add_new bs i in
              if fresh = Hashtbl.mem ht i then ok := false;
              Hashtbl.replace ht i ()
          | _ -> if Bitset.mem bs i <> Hashtbl.mem ht i then ok := false)
        ops;
      for i = 0 to n - 1 do
        if Bitset.mem bs i <> Hashtbl.mem ht i then ok := false
      done;
      if Bitset.cardinal bs <> Hashtbl.length ht then ok := false;
      let members = ref [] in
      Bitset.iter (fun i -> members := i :: !members) bs;
      if List.rev !members
         <> List.sort Int.compare (List.of_seq (Hashtbl.to_seq_keys ht))
      then ok := false;
      Bitset.clear bs;
      if Bitset.cardinal bs <> 0 then ok := false;
      !ok)

let test_bitset_bounds () =
  let bs = Bitset.create 10 in
  check_int "length" 10 (Bitset.length bs);
  check "mem out of range raises" true
    (try
       ignore (Bitset.mem bs 10);
       false
     with Invalid_argument _ -> true);
  check "negative raises" true
    (try
       Bitset.add bs (-1);
       false
     with Invalid_argument _ -> true)

(* ---------- MST: Boruvka = Kruskal = oracle ---------- *)

let test_boruvka_equals_kruskal () =
  List.iter
    (fun (name, g) ->
      let weight_sets =
        [
          ("random", Graph.random_weights ~state:(Random.State.make [| 7 |]) g);
          ("unit", Array.make (Graph.m g) 1.0);
        ]
      in
      List.iter
        (fun (wname, w) ->
          let k = Spanning.kruskal g w in
          let b = Spanning.boruvka g w in
          (* identical edge lists: the (weight, edge id) order makes the
             minimum spanning forest unique, so the two algorithms must
             return the very same edges in the very same order *)
          check (name ^ "/" ^ wname ^ ": identical forests") true (k = b);
          check
            (name ^ "/" ^ wname ^ ": mst dispatch agrees")
            true
            (Spanning.mst ~strategy:Spanning.Boruvka g w = k
            && Spanning.mst g w = k))
        weight_sets;
      (* on connected graphs the total weight must match Prim's oracle *)
      if Graph.n g > 0 && Traversal.is_connected g then begin
        let w = Graph.random_weights ~state:(Random.State.make [| 13 |]) g in
        let wk = Spanning.total_weight w (Spanning.kruskal g w) in
        let wb = Spanning.total_weight w (Spanning.boruvka g w) in
        let wp = Spanning.total_weight w (Spanning.prim g w) in
        check (name ^ ": kruskal = prim weight") true
          (Float.abs (wk -. wp) < 1e-9);
        check (name ^ ": boruvka = prim weight") true
          (Float.abs (wb -. wp) < 1e-9)
      end)
    (families ())

let test_kruskal_negative_weights () =
  (* negative weights leave the radix fast path; the fallback must still
     produce the unique (weight, edge id) forest Boruvka computes *)
  let g = Generators.torus_grid 5 5 in
  let st = Random.State.make [| 21 |] in
  let w =
    Array.init (Graph.m g) (fun _ -> Random.State.float st 2.0 -. 1.0)
  in
  check "negative weights: kruskal = boruvka" true
    (Spanning.kruskal g w = Spanning.boruvka g w)

(* ---------- MST: differential against the previous kernels ---------- *)

module Ref_mst = Reference.Sequential_mst

(* A random builder multigraph: vertices fall into blocks that only get
   edges among themselves (several components), some vertices get none
   (isolated), and the raw stream carries self-loops and duplicates in
   both orientations for the builder to drop or merge. *)
let random_multigraph st =
  let n = Random.State.int st 60 in
  let b = Graph.Builder.create n in
  let blocks = 1 + Random.State.int st 4 in
  let members = Array.make blocks [] in
  for v = n - 1 downto 0 do
    if Random.State.int st 8 > 0 then begin
      let c = Random.State.int st blocks in
      members.(c) <- v :: members.(c)
    end
  done;
  let members = Array.map Array.of_list members in
  let raw = Array.make (4 * n + 1) (0, 0) in
  let len = ref 0 in
  for _ = 1 to Random.State.int st (4 * n + 1) do
    let mem = members.(Random.State.int st blocks) in
    let k = Array.length mem in
    if k > 0 then begin
      (* u = v is a self-loop *)
      let u, v =
        if !len > 0 && Random.State.int st 4 = 0 then
          let u, v = raw.(Random.State.int st !len) in
          if Random.State.bool st then (v, u) else (u, v)
        else (mem.(Random.State.int st k), mem.(Random.State.int st k))
      in
      Graph.Builder.add_edge b u v;
      raw.(!len) <- (u, v);
      incr len
    end
  done;
  Graph.Builder.build b

let mst_weight_sets st m =
  [
    ("distinct", Array.init m (fun _ -> Random.State.float st 1.0));
    ("equal", Array.make m 1.0);
    ("0/1/2", Array.init m (fun _ -> float_of_int (Random.State.int st 3)));
    ("mixed-sign", Array.init m (fun _ -> float_of_int (Random.State.int st 5 - 2)));
    ("signed-zero", Array.init m (fun _ -> if Random.State.bool st then 0.0 else -0.0));
  ]

(* the current kernels, the previous ones and both [mst] strategies all
   return one list *)
let mst_agrees g w =
  let k = Spanning.kruskal g w in
  k = Spanning.boruvka g w
  && k = Ref_mst.kruskal g w
  && k = Ref_mst.boruvka g w
  && k = Spanning.mst g w
  && k = Spanning.mst ~strategy:Spanning.Boruvka g w

let prop_mst_matches_previous =
  QCheck.Test.make
    ~name:"boruvka = kruskal = previous kernels on random multigraphs" ~count:300
    QCheck.int
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let g = random_multigraph st in
      List.for_all (fun (_, w) -> mst_agrees g w) (mst_weight_sets st (Graph.m g)))

let test_mst_fixed_cases () =
  let agree name g w = check (name ^ ": kernels agree") true (mst_agrees g w) in
  let empty0 = Graph.of_edges 0 [] and empty7 = Graph.of_edges 7 [] in
  check "n = 0: empty forest" true (Spanning.boruvka empty0 [||] = []);
  check "m = 0: empty forest" true (Spanning.boruvka empty7 [||] = []);
  agree "n = 0" empty0 [||];
  agree "m = 0" empty7 [||];
  let path = Generators.path 50 in
  let inc = Array.init (Graph.m path) float_of_int in
  check "path: every edge, in id order" true
    (Spanning.boruvka path inc = List.init (Graph.m path) Fun.id);
  agree "path" path inc;
  (* decreasing weights: the forest comes out in descending id order *)
  let star = Generators.star 40 in
  let dec = Array.init (Graph.m star) (fun e -> float_of_int (Graph.m star - e)) in
  check "star: every edge, by weight" true
    (Spanning.boruvka star dec = List.rev (List.init (Graph.m star) Fun.id));
  agree "star" star dec;
  let inf = Array.init (Graph.m star) (fun e -> if e mod 3 = 0 then 1.0 else infinity) in
  agree "star with infinite weights" star inf;
  check "star with infinite weights: spanning" true
    (List.length (Spanning.boruvka star inf) = Graph.m star);
  List.iter
    (fun (name, g) ->
      let st = Random.State.make [| 17 |] in
      List.iter
        (fun (wname, w) -> agree (name ^ "/" ^ wname) g w)
        (mst_weight_sets st (Graph.m g)))
    [
      (* many isolated vertices *)
      ("rmat-s10", Generators.rmat ~seed:5 ~scale:10 ~edge_factor:4 ());
      (* seven contraction rounds under distinct weights *)
      ("grid-90x94", (Generators.grid 90 94).Generators.graph)
    ]

let test_mst_rejects_bad_weights () =
  let g = Generators.torus_grid 4 4 in
  let m = Graph.m g in
  let raises_with name f expected =
    check name true
      (try
         ignore (f ());
         false
       with Invalid_argument msg -> String.equal msg expected)
  in
  let w = Array.init m (fun e -> float_of_int (e mod 5)) in
  w.(3) <- nan;
  w.(11) <- nan;
  raises_with "kruskal rejects NaN" (fun () -> Spanning.kruskal g w)
    "Spanning.kruskal: NaN weight on edge 3";
  raises_with "boruvka rejects NaN" (fun () -> Spanning.boruvka g w)
    "Spanning.boruvka: NaN weight on edge 3";
  raises_with "mst rejects NaN" (fun () -> Spanning.mst ~strategy:Spanning.Boruvka g w)
    "Spanning.boruvka: NaN weight on edge 3";
  let short = Array.make (m - 1) 1.0 in
  let msg fn = Printf.sprintf "Spanning.%s: %d weights for %d edges" fn (m - 1) m in
  raises_with "kruskal rejects a short array" (fun () -> Spanning.kruskal g short)
    (msg "kruskal");
  raises_with "boruvka rejects a short array" (fun () -> Spanning.boruvka g short)
    (msg "boruvka");
  (* a longer array is fine: the extra entries are never read *)
  let long = Array.make (m + 3) 1.0 in
  check "longer weight array accepted" true (mst_agrees g long)

(* ---------- BFS rewrite vs Queue reference ---------- *)

let ref_bfs g src =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.push src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Graph.iter_adj g v (fun w _ ->
        if dist.(w) < 0 then begin
          dist.(w) <- dist.(v) + 1;
          Queue.push w q
        end)
  done;
  dist

let test_bfs_agrees () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let dist = Array.make n (-1) and work = Array.make n 0 in
      for src = 0 to min (n - 1) 20 do
        let expect = ref_bfs g src in
        check (name ^ ": bfs dist") true (Traversal.bfs g src = expect);
        Traversal.bfs_into ~dist ~work g src;
        check (name ^ ": bfs_into dist") true (dist = expect);
        let parent, d2 = Traversal.bfs_tree g src in
        check (name ^ ": bfs_tree dist") true (d2 = expect);
        Array.iteri
          (fun v p ->
            if v = src || expect.(v) < 0 then
              check_int (name ^ ": root/unreached parent") (-1) p
            else begin
              check (name ^ ": parent is one level up") true
                (expect.(p) = expect.(v) - 1);
              check (name ^ ": parent edge exists") true (Graph.mem_edge g p v)
            end)
          parent
      done)
    (families ())

let test_multi_source_and_components () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      if n > 0 then begin
        let srcs = Array.init (min n 3) (fun i -> i * (max 1 (n / 3))) in
        let owner, dist = Traversal.multi_source_bfs g srcs in
        (* owner distances must equal the min over per-source BFS *)
        let per_src = Array.map (fun s -> ref_bfs g s) srcs in
        for v = 0 to n - 1 do
          let best = ref max_int in
          Array.iter
            (fun d -> if d.(v) >= 0 && d.(v) < !best then best := d.(v))
            per_src;
          if !best = max_int then begin
            check_int (name ^ ": unreachable owner") (-1) owner.(v);
            check_int (name ^ ": unreachable dist") (-1) dist.(v)
          end
          else begin
            check_int (name ^ ": multi-source dist") !best dist.(v);
            check (name ^ ": owner attains dist") true
              (per_src.(owner.(v)).(v) = !best)
          end
        done;
        let label, c = Traversal.components g in
        for v = 0 to n - 1 do
          check (name ^ ": label in range") true (label.(v) >= 0 && label.(v) < c);
          for u = v to n - 1 do
            if Graph.mem_edge g u v then
              check_int (name ^ ": edge same component") label.(u) label.(v)
          done
        done;
        let reach0 = ref_bfs g 0 in
        Array.iteri
          (fun v d ->
            check (name ^ ": component 0 = reach of 0") true
              (label.(v) = label.(0) == (d >= 0)))
          reach0
      end)
    (families ())

(* ---------- Fastrand stream equality ---------- *)

let test_fastrand_stream () =
  if Fastrand.active () then begin
    let a = Random.State.make [| 99; 7 |] in
    let b = Random.State.copy a in
    for i = 0 to 511 do
      let f = Random.State.float a 1.0 in
      let d = Fastrand.draw53 b in
      check
        ("draw " ^ string_of_int i ^ " replays Random.State.float")
        true
        (Float.equal f (float_of_int d *. 0x1.p-53));
      check "draw is in [1, 2^53)" true (d >= 1 && d < 1 lsl 53)
    done;
    (* states remain in lockstep after 512 draws *)
    check "states converge" true
      (Float.equal (Random.State.float a 1.0)
         (float_of_int (Fastrand.draw53 b) *. 0x1.p-53))
  end

(* ---------- seal on a big graph ---------- *)

let test_big_graph_seal () =
  (* 200x200 grid (2m = 318400): edge indexing must agree with a linear
     scan of the neighbor arrays *)
  let g = (Generators.grid 200 200).Generators.graph in
  let n = Graph.n g in
  check_int "grid vertices" 40000 n;
  let st = Random.State.make [| 5 |] in
  for _ = 1 to 2000 do
    let u = Random.State.int st n in
    let nbrs = Graph.neighbors g u in
    Array.iter
      (fun v ->
        check "mem_edge on seal path" true (Graph.mem_edge g u v);
        let e = Graph.find_edge_id g u v in
        check "find_edge_id finds a real edge" true (e >= 0);
        let a, b = Graph.edge g e in
        check "edge joins u v" true ((a = u && b = v) || (a = v && b = u)))
      nbrs;
    let v = Random.State.int st n in
    check "mem_edge agrees with neighbor scan" (Array.exists (( = ) v) nbrs)
      (Graph.mem_edge g u v)
  done

let () =
  Alcotest.run "sort"
    [
      ( "radix",
        qsuite
          [
            prop_sort_nonneg;
            prop_sort_unsigned;
            prop_sort_scratch_reuse;
            prop_sort_pairs_permutation;
            prop_sort_pairs_stable;
            prop_float_key_monotone;
          ] );
      ( "bitset",
        Alcotest.test_case "bounds" `Quick test_bitset_bounds
        :: qsuite [ prop_bitset_matches_hashtbl ] );
      ( "mst",
        [
          Alcotest.test_case "boruvka = kruskal = oracle" `Quick
            test_boruvka_equals_kruskal;
          Alcotest.test_case "negative-weight fallback" `Quick
            test_kruskal_negative_weights;
          Alcotest.test_case "fixed cases = previous kernels" `Quick
            test_mst_fixed_cases;
          Alcotest.test_case "NaN and short weight arrays rejected" `Quick
            test_mst_rejects_bad_weights;
        ]
        @ qsuite [ prop_mst_matches_previous ] );
      ( "bfs",
        [
          Alcotest.test_case "flat worklists match Queue reference" `Quick
            test_bfs_agrees;
          Alcotest.test_case "multi-source and components" `Quick
            test_multi_source_and_components;
        ] );
      ( "fastrand",
        [ Alcotest.test_case "stream equality" `Quick test_fastrand_stream ] );
      ( "seal",
        [ Alcotest.test_case "radix seal path indexes" `Quick test_big_graph_seal ]
      );
    ]
