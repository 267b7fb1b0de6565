(* Differential tests for part-wise aggregation.  The flat-table
   [Aggregate.minimum] must be indistinguishable from the hashtable
   version it replaced (kept in reference.ml): equal minima, engine stats
   and trace summaries — busiest edge included, which is where the
   per-node send order shows — on every CSR family, for Voronoi parts and
   Borůvka fragments, with and without shortcuts.  Send order also feeds
   randomness in two places, so both are replayed against the reference:
   drop rolls under a fault plan (a best-effort Borůvka MST) and latency
   draws under the α-synchronizer.  Last, the linear [Part.check] against
   its per-part [is_connected_subset] reference on valid and corrupted
   partitions. *)

open Graphlib
module A = Congest.Aggregate
module T = Congest.Trace
module Part = Shortcuts.Part
module Sc = Shortcuts.Shortcut
module Lat = Asynch.Latency
module Sync = Asynch.Synchronizer

let families seed =
  [
    ("grid", (Generators.grid 6 7).Generators.graph);
    ("apollonian", (Generators.apollonian ~seed:(3 + seed) 30).Generators.graph);
    ("series-parallel", Generators.series_parallel ~seed:(5 + seed) 36);
    ("ktree", fst (Generators.k_tree ~seed:(2 + seed) ~k:3 30));
    ("torus", Generators.torus_grid 5 7);
    ("wheel", Generators.cycle_with_apex 70);
    ("erdos-renyi", Generators.erdos_renyi ~seed:(9 + seed) 30 0.15);
    ("rmat", Generators.rmat ~seed:(11 + seed) ~scale:5 ~edge_factor:3 ());
    ("path", Generators.path 14);
    ("complete", Graph.complete 8);
    ("empty", Graph.of_edges 5 []);
    ("single", Graph.of_edges 1 []);
  ]

let weights seed g = Graph.random_weights ~state:(Random.State.make [| seed |]) g

let partitions seed g =
  [
    ("voronoi", Part.voronoi ~seed g ~count:(max 1 (Graph.n g / 5)));
    ("boruvka", Part.boruvka_fragments g (weights seed g) ~level:(1 + (seed mod 2)));
  ]

(* small integer keys (negative ones included) so ties are common and the
   data word decides; some members hold no value at all *)
let values seed g (parts : Part.t) =
  let st = Random.State.make [| seed; 77 |] in
  Array.init (Graph.n g) (fun v ->
      if parts.Part.part_of.(v) < 0 || Random.State.int st 8 = 0 then None
      else Some (float_of_int (Random.State.int st 5 - 2), Random.State.int st 50))

(* [Spanning.bfs_tree] wants a connected graph; aggregation itself does
   not, so disconnected families get a BFS forest (one root per
   component) to carry their shortcuts *)
let tree_of g =
  if Traversal.is_connected g then Spanning.bfs_tree g 0
  else begin
    let n = Graph.n g in
    let parent = Array.make n (-1) and parent_edge = Array.make n (-1) in
    let depth = Array.make n (-1) and order = Array.make n 0 in
    let k = ref 0 in
    for r = 0 to n - 1 do
      if depth.(r) < 0 then begin
        depth.(r) <- 0;
        order.(!k) <- r;
        let head = ref !k in
        incr k;
        while !head < !k do
          let v = order.(!head) in
          incr head;
          Graph.iter_adj g v (fun u e ->
              if depth.(u) < 0 then begin
                depth.(u) <- depth.(v) + 1;
                parent.(u) <- v;
                parent_edge.(u) <- e;
                order.(!k) <- u;
                incr k
              end)
        done
      end
    done;
    { Spanning.graph = g; root = 0; parent; parent_edge; depth; order }
  end

(* the largest connected component: Generic.construct and Mst.boruvka
   need a spanning tree *)
let core g =
  if Traversal.is_connected g then g
  else begin
    let comp, k = Traversal.components g in
    let size = Array.make k 0 in
    Array.iter (fun c -> size.(c) <- size.(c) + 1) comp;
    let best = ref 0 in
    Array.iteri (fun c s -> if s > size.(!best) then best := c) size;
    let members =
      List.filter (fun v -> comp.(v) = !best) (List.init (Graph.n g) Fun.id)
    in
    (Subgraph.induced g members).Subgraph.sub
  end

(* (name, constructor, host graph of a family) *)
let constructors =
  [
    ("generic", (fun tree parts -> Shortcuts.Generic.construct tree parts), core);
    ("empty", Sc.empty, Fun.id);
  ]

(* every (family, constructor, partition) cell for one seed *)
let cells seed =
  List.concat_map
    (fun (fam, g) ->
      List.concat_map
        (fun (cname, construct, host) ->
          let g = host g in
          let tree = tree_of g in
          List.map
            (fun (pname, parts) ->
              let label = Printf.sprintf "%s/%s/%s/seed%d" fam cname pname seed in
              (label, g, construct tree parts))
            (partitions seed g))
        constructors)
    (families seed)

let agree label ok = if not ok then QCheck.Test.fail_reportf "%s differs" label

let same_summary ta tb = T.summary ta = T.summary tb

let prop_clean =
  QCheck.Test.make ~name:"flat minimum = hashtable reference: mins, stats, trace"
    ~count:6 QCheck.(int_bound 1000)
    (fun seed ->
      List.iter
        (fun (label, g, sc) ->
          let values = values seed g sc.Sc.parts in
          let ta = T.create g and tb = T.create g in
          let a = A.minimum ~trace:ta sc ~values in
          let b = Reference.minimum ~trace:tb sc ~values in
          agree (label ^ " mins") (a.A.mins = b.Reference.mins);
          agree (label ^ " stats") (a.A.stats = b.Reference.stats);
          agree (label ^ " trace") (same_summary ta tb);
          agree (label ^ " verify") (A.verify sc ~values a))
        (cells seed);
      true)

let prop_synchronizer =
  QCheck.Test.make
    ~name:"flat minimum = reference under the synchronizer (pareto latency)"
    ~count:4 QCheck.(int_bound 1000)
    (fun seed ->
      let spec = Lat.make ~seed:(200 + seed) (Lat.Pareto { alpha = 1.5; xmin = 0.5 }) in
      List.iter
        (fun (label, g, sc) ->
          let values = values seed g sc.Sc.parts in
          let ta = T.create g and tb = T.create g in
          let a, sa = Sync.with_substrate ~spec (fun () -> A.minimum ~trace:ta sc ~values) in
          let b, sb =
            Sync.with_substrate ~spec (fun () -> Reference.minimum ~trace:tb sc ~values)
          in
          agree (label ^ " mins") (a.A.mins = b.Reference.mins);
          agree (label ^ " stats") (a.A.stats = b.Reference.stats);
          agree (label ^ " trace") (same_summary ta tb);
          agree (label ^ " synchronizer report") (sa = sb))
        (cells seed);
      true)

let prop_mst_drops =
  QCheck.Test.make ~name:"best-effort Boruvka under 20% drops = reference"
    ~count:4 QCheck.(int_bound 1000)
    (fun seed ->
      List.iter
        (fun (fam, g) ->
          let g = core g in
          let w = weights seed g in
          List.iter
            (fun (cname, constructor, _) ->
              let label = Printf.sprintf "%s/%s/seed%d" fam cname seed in
              let faults = Faults.make ~drop:0.2 (300 + seed) in
              let ta = T.create g and tb = T.create g in
              let a =
                Congest.Mst.boruvka ~strict:false ~faults ~trace:ta ~constructor g w
              in
              let b = Reference.boruvka ~strict:false ~faults ~trace:tb ~constructor g w in
              agree (label ^ " report") (a = b);
              agree (label ^ " trace") (same_summary ta tb))
            constructors)
        (families seed);
      true)

(* clean runs too: the (weight, edge) comparator of the MST loop *)
let prop_mst_clean =
  QCheck.Test.make ~name:"Boruvka reports = reference on every family"
    ~count:4 QCheck.(int_bound 1000)
    (fun seed ->
      List.iter
        (fun (fam, g) ->
          let g = core g in
          let w = weights seed g in
          List.iter
            (fun (cname, constructor, _) ->
              let label = Printf.sprintf "%s/%s/seed%d" fam cname seed in
              let a = Congest.Mst.boruvka ~constructor g w in
              let b = Reference.boruvka ~constructor g w in
              agree (label ^ " report") (a = b))
            constructors)
        (families seed);
      true)

(* A hub whose link table resizes at least four times.  The table starts
   at 16 buckets and doubles once it holds more than twice its bucket
   count, so a hub with more than 256 links crosses 32, 64, 128 and 256
   buckets; each incident edge that carries a grant is one link.  The
   families above have a 70-node wheel, which resizes at most twice. *)
let test_hub_resizes () =
  let g = Generators.cycle_with_apex 600 in
  let hub = Graph.n g - 1 in
  let parts = Part.voronoi ~seed:1 g ~count:(Graph.n g / 5) in
  let sc = Shortcuts.Generic.construct (tree_of g) parts in
  let granted = Array.make (Graph.m g) false in
  Array.iter (Array.iter (fun e -> granted.(e) <- true)) sc.Sc.assigned;
  let hub_grants = ref 0 in
  Graph.iter_adj g hub (fun _ e -> if granted.(e) then incr hub_grants);
  if !hub_grants <= 256 then
    Alcotest.failf "only %d of the hub's edges carry a grant" !hub_grants;
  let values = values 1 g parts in
  let check = Alcotest.(check bool) in
  (* a clean run cannot see the hub's send order (inboxes are sorted by
     sender), so the order is also replayed through drop rolls *)
  List.iter
    (fun (label, faults) ->
      let ta = T.create g and tb = T.create g in
      let a = A.minimum ?faults:(faults ()) ~trace:ta sc ~values in
      let b = Reference.minimum ?faults:(faults ()) ~trace:tb sc ~values in
      check (label ^ " mins") true (a.A.mins = b.Reference.mins);
      check (label ^ " stats") true (a.A.stats = b.Reference.stats);
      check (label ^ " trace") true (same_summary ta tb))
    [
      ("clean", fun () -> None);
      ("20% drops", fun () -> Some (Faults.make ~drop:0.2 7));
    ]

(* ---------- Part.check ---------- *)

(* valid partitions of [g] and corruptions of each: two parts merged
   (usually disconnected), a vertex dropped from a part, a vertex shared
   with another part, a vertex listed twice, an empty part, a stale
   part_of entry *)
let part_variants seed g =
  let n = Graph.n g in
  let st = Random.State.make [| seed; 91 |] in
  let valid =
    [
      Part.voronoi ~seed g ~count:(max 1 (n / 4));
      Part.boruvka_fragments g (weights seed g) ~level:1;
      Part.random_connected ~seed g ~count:3 ~coverage:0.6;
      Part.singletons g;
    ]
  in
  let make parts =
    let part_of = Array.make n (-1) in
    Array.iteri (fun i p -> Array.iter (fun v -> part_of.(v) <- i) p) parts;
    { Part.parts; part_of }
  in
  let pick k = Random.State.int st (max 1 k) in
  let set parts i q = Array.mapi (fun x p -> if x = i then q else p) parts in
  let without a r =
    Array.of_list (List.filteri (fun x _ -> x <> r) (Array.to_list a))
  in
  let corrupt (t : Part.t) =
    let parts = t.Part.parts in
    let k = Array.length parts in
    if k = 0 then []
    else begin
      let i = pick k and j = pick k in
      let pi = parts.(i) and pj = parts.(j) in
      let add q = { t with Part.parts = set parts i (Array.append pi q) } in
      (if i = j then []
       else
         [
           make (without (set parts i (Array.append pi pj)) j);
           add [| pj.(pick (Array.length pj)) |];
         ])
      @ (if Array.length pi < 2 then []
         else [ make (set parts i (without pi (pick (Array.length pi)))) ])
      @ [
          add [| pi.(0) |];
          { t with Part.parts = Array.append parts [| [||] |] };
          (let part_of = Array.copy t.Part.part_of in
           part_of.(pi.(0)) <- (part_of.(pi.(0)) + 1) mod (k + 1);
           { t with Part.part_of });
        ]
    end
  in
  valid @ List.concat_map corrupt valid

let prop_part_check =
  QCheck.Test.make ~name:"linear Part.check = per-part reference" ~count:8
    QCheck.(int_bound 1000)
    (fun seed ->
      List.iter
        (fun (fam, g) ->
          List.iteri
            (fun i t ->
              let label = Printf.sprintf "%s/variant%d/seed%d" fam i seed in
              agree label (Part.check g t = Reference.part_check g t))
            (part_variants seed g))
        (families seed);
      true)

let test_part_check_messages () =
  let g = Generators.path 6 in
  let check_msg name expect parts part_of =
    Alcotest.(check (result unit string))
      name expect
      (Part.check g { Part.parts; part_of })
  in
  check_msg "valid" (Ok ()) [| [| 0; 1; 2 |]; [| 3; 4; 5 |] |] [| 0; 0; 0; 1; 1; 1 |];
  check_msg "disconnected" (Error "disconnected part")
    [| [| 0; 2 |]; [| 1; 3; 4; 5 |] |]
    [| 0; 1; 0; 1; 1; 1 |];
  check_msg "empty" (Error "empty part") [| [| 0; 1; 2; 3; 4; 5 |]; [||] |]
    [| 0; 0; 0; 0; 0; 0 |];
  check_msg "size" (Error "part_of size mismatch") [| [| 0 |] |] [| 0 |];
  (* the last error found wins, and a vertex listed twice is both an
     overlap and a connectivity miss *)
  check_msg "doubled" (Error "disconnected part") [| [| 0; 1; 1 |]; [| 2; 3; 4; 5 |] |]
    [| 0; 0; 1; 1; 1; 1 |]

let () =
  Alcotest.run "aggregate-diff"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_clean; prop_synchronizer; prop_mst_drops; prop_mst_clean ]
        @ [
            Alcotest.test_case "hub link table past four resizes" `Quick
              test_hub_resizes;
          ] );
      ( "part-check",
        [
          QCheck_alcotest.to_alcotest prop_part_check;
          Alcotest.test_case "messages" `Quick test_part_check_messages;
        ] );
    ]
