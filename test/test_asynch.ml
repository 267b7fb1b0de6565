(* Asynchronous executor tests: the event-queue heap, the stream-name
   registry, the α-synchronizer's sync-equality oracle across every CSR
   family (all six step-API algorithms, three seeds each, rotating
   latency models), native async BFS / leader election, latency-model
   time bounds, bandwidth serialization, and fault-plan composition. *)

open Graphlib
module N = Congest.Network
module Lat = Asynch.Latency
module Sync = Asynch.Synchronizer
module Native = Asynch.Native

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- event-queue heap ---------- *)

(* (time, a, b) order, the reference the heap must reproduce *)
let key_order (t1, a1, b1, _) (t2, a2, b2, _) =
  let c = Float.compare t1 t2 in
  if c <> 0 then c
  else
    let c = Int.compare a1 a2 in
    if c <> 0 then c else Int.compare b1 b2

(* pop the minimum through the allocation-free calls: keys, then payload *)
let pop_event q =
  let t = Pqueue.Event.min_time q in
  let a = Pqueue.Event.min_a q in
  (t, a, Pqueue.Event.pop q)

let test_event_heap_order () =
  let q = Pqueue.Event.create () in
  let st = Random.State.make [| 42 |] in
  let entries =
    Array.init 500 (fun i ->
        ( float_of_int (Random.State.int st 50),
          Random.State.int st 10,
          Random.State.int st 1000,
          i ))
  in
  Array.iter (fun (t, a, b, p) -> Pqueue.Event.push q ~time:t ~a ~b p) entries;
  check_int "size" 500 (Pqueue.Event.size q);
  check_int "high water" 500 (Pqueue.Event.high_water q);
  let reference = List.stable_sort key_order (Array.to_list entries) in
  List.iter
    (fun (t, a, _, p) ->
      let t', a', p' = pop_event q in
      check "pop time" true (Float.equal t t');
      check_int "pop a" a a';
      check_int "pop payload" p p')
    reference;
  check "empty" true (Pqueue.Event.is_empty q);
  check_int "high water survives drain" 500 (Pqueue.Event.high_water q);
  let raises f =
    try
      ignore (f q);
      false
    with Invalid_argument _ -> true
  in
  check "min_time on empty raises" true (raises Pqueue.Event.min_time);
  check "min_a on empty raises" true (raises Pqueue.Event.min_a);
  check "pop on empty raises" true (raises Pqueue.Event.pop)

(* Interleaved pushes and pops against a sorted-list model.  Times and
   [a] keys take a few values each, so most entries tie on both and the
   order rests on the full (time, a, b) test; [b] is unique (an odd
   multiplier is a bijection mod 2^16) but uncorrelated with insertion
   order.  Each phase ends in a full drain and the next refills, so the
   size crosses the heap's growth steps (8, 16, 32, ...) repeatedly. *)
type heap_op = Push of int * int | Pop

let heap_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (3, map2 (fun t a -> Push (t, a)) (int_bound 3) (int_bound 2));
        (1, return Pop);
      ]
  in
  list_size (int_range 1 4) (list_size (int_bound 300) op)

let show_ops phases =
  String.concat " | "
    (List.map
       (fun ops ->
         String.concat ""
           (List.map
              (function Push (t, a) -> Printf.sprintf "+%d%d" t a | Pop -> "-")
              ops))
       phases)

let prop_event_heap_model =
  QCheck.Test.make ~name:"event heap = sorted-list model, interleaved"
    ~count:200
    (QCheck.make ~print:show_ops heap_ops)
    (fun phases ->
      let q = Pqueue.Event.create () in
      let model = ref [] and pushed = ref 0 and hwm = ref 0 in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let pop_one () =
        match !model with
        | [] -> fail "model empty at a pop"
        | (t, a, _, p) :: rest ->
            let t', a', p' = pop_event q in
            if not (Float.equal t t' && a = a' && p = p') then
              fail "popped (%g, %d, payload %d), model says (%g, %d, payload %d)"
                t' a' p' t a p;
            model := rest
      in
      let check_size () =
        if Pqueue.Event.size q <> List.length !model then
          fail "size %d, model %d" (Pqueue.Event.size q) (List.length !model);
        if Pqueue.Event.high_water q <> !hwm then
          fail "high_water %d, model %d" (Pqueue.Event.high_water q) !hwm
      in
      List.iter
        (fun ops ->
          List.iter
            (fun op ->
              (match op with
              | Push (t, a) ->
                  let time = 0.5 *. float_of_int t in
                  let b = (!pushed * 40503) land 0xffff in
                  Pqueue.Event.push q ~time ~a ~b !pushed;
                  model := List.merge key_order [ (time, a, b, !pushed) ] !model;
                  incr pushed;
                  hwm := max !hwm (List.length !model)
              | Pop -> if !model <> [] then pop_one ());
              check_size ())
            ops;
          while !model <> [] do
            pop_one ();
            check_size ()
          done;
          if not (Pqueue.Event.is_empty q) then fail "heap not empty after drain")
        phases;
      true)

(* ---------- stream registry ---------- *)

let test_stream_registry () =
  check "faults.drop registered" true
    (Faults.Streams.registered "faults.drop");
  check "asynch.latency registered" true
    (Faults.Streams.registered Faults.Streams.asynch_latency);
  check "asynch.bandwidth registered" true
    (Faults.Streams.registered Faults.Streams.asynch_bandwidth);
  check "serve.mix registered" true (Faults.Streams.registered "serve.mix");
  (* a fresh name registers once, then collides *)
  let name = "test.streams.probe" in
  let returned = Faults.Streams.register name in
  check "register returns the name" true (String.equal returned name);
  check "duplicate rejected" true
    (try
       ignore (Faults.Streams.register name);
       false
     with Invalid_argument _ -> true);
  check "all contains it" true (List.mem name (Faults.Streams.all ()))

(* ---------- sync-equality oracle ---------- *)

let families seed =
  [
    ("grid", (Generators.grid 5 6).Generators.graph);
    ("apollonian", (Generators.apollonian ~seed:(3 + seed) 24).Generators.graph);
    ("series-parallel", Generators.series_parallel ~seed:(5 + seed) 30);
    ("ktree", fst (Generators.k_tree ~seed:(2 + seed) ~k:3 28));
    ("torus", Generators.torus_grid 5 6);
    ("wheel", Generators.cycle_with_apex 20);
    ("erdos-renyi", Generators.erdos_renyi ~seed:(9 + seed) 24 0.2);
    ("rmat", Generators.rmat ~seed:(11 + seed) ~scale:5 ~edge_factor:3 ());
    ("path", Generators.path 10);
    ("complete", Graph.complete 7);
    ("empty", Graph.of_edges 4 []);
    ("single", Graph.of_edges 1 []);
  ]

let spec_for seed =
  match seed with
  | 1 -> Lat.make ~seed:101 (Lat.Constant 1.0)
  | 2 -> Lat.make ~seed:102 (Lat.Exponential 1.0)
  | _ -> Lat.make ~seed:103 (Lat.Pareto { alpha = 1.5; xmin = 0.5 })

let unit_weights g = Graph.unit_weights g

(* BFS-style distance flood over the raw step API: the smallest complete
   algorithm that exercises sends, inbox reads, and wake-on-mail — used by
   every substrate-level test below.  Mirrors [Congest.Bfs]'s convergence
   trick: unreached nodes count as finished so disconnected graphs halt. *)
type flood = { d : int; sent : bool }

let flood_algo root =
  {
    N.init =
      (fun _ v ->
        if v = root then { d = 0; sent = false } else { d = -1; sent = false });
    step =
      (fun ctx st ->
        let st = ref st in
        for i = 0 to N.inbox_size ctx - 1 do
          let c = N.inbox_word ctx i 0 + 1 in
          if !st.d < 0 || c < !st.d then st := { !st with d = c }
        done;
        let st = !st in
        if st.d >= 0 && not st.sent then begin
          N.send_all ctx [| st.d |];
          { st with sent = true }
        end
        else st);
    finished = (fun st -> st.sent || st.d < 0);
  }

(* run one algorithm entry point on both substrates and demand equal
   results; [name] labels the Alcotest failure *)
let oracle_all_six () =
  List.iter
    (fun seed ->
      let spec = spec_for seed in
      List.iter
        (fun (fam, g) ->
          let tag what = Printf.sprintf "%s/%s/seed%d" what fam seed in
          let n = Graph.n g in
          (* BFS: states and round counts *)
          let sync_bfs = Congest.Bfs.run g ~root:0 in
          let (async_bfs, _) =
            Sync.with_substrate ~spec (fun () -> Congest.Bfs.run g ~root:0)
          in
          check (tag "bfs states") true (fst sync_bfs = fst async_bfs);
          check_int (tag "bfs rounds") (snd sync_bfs).N.rounds
            (snd async_bfs).N.rounds;
          (* SSSP (unweighted flood) *)
          let sync_sssp = Congest.Sssp.unweighted g ~source:0 in
          let (async_sssp, _) =
            Sync.with_substrate ~spec (fun () ->
                Congest.Sssp.unweighted g ~source:0)
          in
          check (tag "sssp dist") true
            (sync_sssp.Congest.Sssp.dist = async_sssp.Congest.Sssp.dist);
          check (tag "sssp parent") true
            (sync_sssp.Congest.Sssp.parent = async_sssp.Congest.Sssp.parent);
          check_int (tag "sssp rounds") sync_sssp.Congest.Sssp.stats.N.rounds
            async_sssp.Congest.Sssp.stats.N.rounds;
          (* the remaining four need a connected graph of some size
             (Leader.elect's census stage assumes every node is in the
             leader's BFS tree) *)
          if n >= 2 && Traversal.is_connected g then begin
            let sync_l = Congest.Leader.elect g in
            let (async_l, _) =
              Sync.with_substrate ~spec (fun () -> Congest.Leader.elect g)
            in
            check_int (tag "leader") sync_l.Congest.Leader.leader
              async_l.Congest.Leader.leader;
            check_int (tag "leader n") sync_l.Congest.Leader.n_estimate
              async_l.Congest.Leader.n_estimate;
            check_int (tag "leader d") sync_l.Congest.Leader.d_estimate
              async_l.Congest.Leader.d_estimate;
            check_int (tag "leader rounds") sync_l.Congest.Leader.stats.N.rounds
              async_l.Congest.Leader.stats.N.rounds;
            let w = unit_weights g in
            let mst () =
              Congest.Mst.boruvka ~constructor:Congest.Mst.shortcut_constructor
                g w
            in
            let sync_mst = mst () in
            let (async_mst, _) = Sync.with_substrate ~spec mst in
            check (tag "mst report") true (sync_mst = async_mst);
            let cut () =
              Congest.Mincut.approx ~trees:2 ~seed
                ~constructor:Congest.Mst.shortcut_constructor g w
            in
            let sync_cut = cut () in
            let (async_cut, _) = Sync.with_substrate ~spec cut in
            check (tag "mincut report") true (sync_cut = async_cut);
            let agg () =
              let parts =
                Core.Part.voronoi ~seed:(2 + seed) g ~count:(max 2 (n / 8))
              in
              let sc = Core.shortcut g ~parts in
              Core.Aggregate.rounds_for_parts sc ~seed
            in
            let sync_agg = agg () in
            let (async_agg, _) = Sync.with_substrate ~spec agg in
            check_int (tag "aggregate rounds") sync_agg async_agg
          end)
        (families seed))
    [ 1; 2; 3 ]

(* sync-equality oracle on one raw step-API algorithm: both substrates
   land in structurally equal states after the same number of rounds *)
let sync_equal ?faults ~spec g algo =
  let sync_states, sync_stats = N.run ?faults g algo in
  let async_states, async_stats, _ = Sync.run ?faults ~spec g algo in
  sync_states = async_states && sync_stats.N.rounds = async_stats.N.rounds

let test_sync_equal () =
  let g = (Generators.grid 4 5).Generators.graph in
  let spec = Lat.make ~seed:7 (Lat.Uniform (0.2, 1.8)) in
  check "oracle" true (sync_equal ~spec g (flood_algo 0))

(* ---------- native algorithms ---------- *)

let test_native_bfs () =
  List.iter
    (fun (fam, g) ->
      let spec = Lat.make ~seed:31 (Lat.Exponential 1.0) in
      let states, rep = Native.run ~spec g (Native.bfs ~root:0) in
      check (fam ^ ": quiesced") true rep.Native.quiesced;
      let sync, _ = Congest.Bfs.run g ~root:0 in
      Array.iteri
        (fun v st ->
          let expect = sync.(v).Congest.Bfs.dist in
          let got = if st.Native.dist = max_int then -1 else st.Native.dist in
          check_int (fam ^ ": native bfs dist") expect got)
        states)
    [
      ("grid", (Generators.grid 6 7).Generators.graph);
      ("apollonian", (Generators.apollonian ~seed:3 40).Generators.graph);
      ("path", Generators.path 12);
      ("erdos-renyi", Generators.erdos_renyi ~seed:9 30 0.2);
    ]

let test_native_leader () =
  let g = Generators.torus_grid 5 5 in
  let spec = Lat.make ~seed:33 (Lat.Pareto { alpha = 1.6; xmin = 0.4 }) in
  let states, rep = Native.run ~spec g Native.leader in
  check "quiesced" true rep.Native.quiesced;
  let leaders = ref 0 in
  Array.iteri
    (fun v st ->
      check_int "flood-max best" (Graph.n g - 1) st.Native.best;
      if st.Native.is_leader then begin
        incr leaders;
        check_int "leader is max id" (Graph.n g - 1) v
      end)
    states;
  check_int "exactly one leader" 1 !leaders

(* ---------- simulated-time structure ---------- *)

(* with constant latency c a pulse transition needs at least one safe hop
   (>= c) and at most a full data -> ack -> safe handshake (<= 3c) *)
let test_constant_latency_bounds () =
  let g = (Generators.grid 6 6).Generators.graph in
  let c = 2.5 in
  let spec = Lat.make ~seed:5 (Lat.Constant c) in
  let sync_states, sync_stats = N.run g (flood_algo 0) in
  let states, stats, rep = Sync.run ~spec g (flood_algo 0) in
  check "converged" true rep.Sync.converged;
  check "states match sync" true (states = sync_states);
  check_int "pulses = sync rounds" sync_stats.N.rounds rep.Sync.pulses;
  check_int "stats rounds too" sync_stats.N.rounds stats.N.rounds;
  let p = float_of_int rep.Sync.pulses in
  check "sim_time lower bound" true
    (rep.Sync.sim_time >= (c *. (p -. 1.0)) -. 1e-9);
  check "sim_time upper bound" true
    (rep.Sync.sim_time <= (3.0 *. c *. p) +. 1e-9);
  check "control traffic exists" true (rep.Sync.ctrl_msgs > 0);
  check "data on the wire" true (rep.Sync.data_msgs > 0);
  check "queue high-water sane" true
    (rep.Sync.queue_hwm > 0 && rep.Sync.events >= rep.Sync.data_msgs)

(* bandwidth caps serialize messages: same results, strictly more time *)
let test_bandwidth_caps () =
  let g = Generators.torus_grid 4 5 in
  let free = Lat.make ~seed:13 (Lat.Constant 1.0) in
  let capped = Lat.make ~bw:(0.25, 0.25) ~seed:13 (Lat.Constant 1.0) in
  let s1, st1, r1 = Sync.run ~spec:free g (flood_algo 0) in
  let s2, st2, r2 = Sync.run ~spec:capped g (flood_algo 0) in
  check "same states" true (s1 = s2);
  check_int "same rounds" st1.N.rounds st2.N.rounds;
  check "serialization costs time" true (r2.Sync.sim_time > r1.Sync.sim_time)

(* a delay-only fault plan stretches simulated time but, under the
   synchronizer, cannot change results or round counts *)
let test_delay_plan_stretches_time () =
  let g = (Generators.grid 5 5).Generators.graph in
  let spec = Lat.make ~seed:17 (Lat.Constant 1.0) in
  let plan = Faults.make ~delay:0.6 ~max_delay:4 21 in
  let s_clean, st_clean, r_clean = Sync.run ~spec g (flood_algo 0) in
  let s_del, st_del, r_del = Sync.run ~spec ~faults:plan g (flood_algo 0) in
  check "delayed converged" true r_del.Sync.converged;
  check "states unchanged by delays" true (s_clean = s_del);
  check_int "rounds unchanged by delays" st_clean.N.rounds st_del.N.rounds;
  check "delays never speed things up" true
    (r_del.Sync.sim_time >= r_clean.Sync.sim_time -. 1e-9)

(* drops compose: reliable links on the async substrate still deliver *)
let test_drop_plan_with_resilient () =
  let g = (Generators.grid 5 5).Generators.graph in
  let spec = Lat.make ~seed:41 (Lat.Exponential 1.0) in
  let plan = Faults.make ~drop:0.15 5 in
  let rep, summary =
    Sync.with_substrate ~spec (fun () ->
        Congest.Resilient.bfs ~max_rounds:20_000 ~faults:plan g ~root:0)
  in
  check "resilient bfs succeeds under drops" true rep.Congest.Resilient.success;
  check "substrate saw the run" true (summary.Sync.runs >= 1);
  check "substrate converged" true summary.Sync.all_converged

(* same spec, same graph, same algorithm: identical runs, bit for bit *)
let test_determinism () =
  let g = Generators.rmat ~seed:19 ~scale:5 ~edge_factor:3 () in
  let spec = Lat.make ~seed:23 (Lat.Pareto { alpha = 1.5; xmin = 0.5 }) in
  let once () = Sync.run ~timeline:true ~spec g (flood_algo 0) in
  let s1, st1, r1 = once () in
  let s2, st2, r2 = once () in
  check "states replay" true (s1 = s2);
  check "stats replay" true (st1 = st2);
  check "report replays (incl. timeline)" true (r1 = r2);
  let n1 = Native.run ~spec g (Native.bfs ~root:0) in
  let n2 = Native.run ~spec g (Native.bfs ~root:0) in
  check "native replay" true (n1 = n2)

(* ---------- replay pins ----------

   Exact event-order pins for both executors: every report count and the
   bit pattern of the simulated makespan, recorded with the swap-sifting
   heap and arena-slot control events that preceded the current core, so
   they hold it to the same order.  Any change to the (time, edge, seq)
   processing order, to the latency draws or to the bandwidth
   serialization moves at least one of them.  Grid, wheel and an RMAT
   graph with isolated vertices; all four latency models plus one
   bandwidth-capped spec; and, for the synchronizer, a plan that drops,
   delays and crashes. *)

let pin_families () =
  [
    ("grid6x6", (Generators.grid 6 6).Generators.graph);
    ("wheel24", Generators.cycle_with_apex 24);
    ("rmat-s6", Generators.rmat ~seed:7 ~scale:6 ~edge_factor:2 ());
  ]

let pin_specs =
  [
    ("const", Lat.make ~seed:61 (Lat.Constant 1.0));
    ("uniform", Lat.make ~seed:62 (Lat.Uniform (0.5, 1.5)));
    ("exp", Lat.make ~seed:63 (Lat.Exponential 1.0));
    ("pareto", Lat.make ~seed:64 (Lat.Pareto { alpha = 1.5; xmin = 0.5 }));
    ("exp+bw", Lat.make ~bw:(0.5, 2.0) ~seed:65 (Lat.Exponential 1.0));
  ]

let pin_plan =
  Faults.make ~drop:0.1 ~delay:0.3 ~max_delay:3
    ~crashes:[ { Faults.node = 5; at_round = 3 } ]
    71

(* label, [| pulses; data_msgs; ctrl_msgs; events; queue_hwm; stats
   rounds; stats messages; dropped; delayed |], converged, sim_time bits *)
let sync_pins =
  [
    ("grid6x6/const", [| 12; 120; 1781; 1835; 120; 12; 120; 0; 0 |], true, 4629841154425225216L);
    ("grid6x6/uniform", [| 12; 120; 1828; 1890; 120; 12; 120; 0; 0 |], true, 4630887643287511862L);
    ("grid6x6/exp", [| 12; 120; 1795; 1887; 120; 12; 120; 0; 0 |], true, 4632219818837002004L);
    ("grid6x6/pareto", [| 12; 120; 1750; 1839; 120; 12; 120; 0; 0 |], true, 4640430755113945009L);
    ("grid6x6/exp+bw", [| 12; 120; 1852; 1942; 120; 12; 120; 0; 0 |], true, 4634340281192164287L);
    ("grid6x6/uniform+faults", [| 12; 106; 1849; 1924; 120; 12; 106; 14; 35 |], true, 4633545595387727763L);
    ("grid6x6/exp+bw+faults", [| 12; 106; 1668; 1749; 120; 12; 106; 14; 35 |], true, 4634942461539901859L);
    ("wheel24/const", [| 4; 92; 460; 463; 92; 4; 92; 0; 0 |], true, 4621256167635550208L);
    ("wheel24/uniform", [| 4; 92; 460; 467; 92; 4; 92; 0; 0 |], true, 4622575406551497179L);
    ("wheel24/exp", [| 4; 92; 484; 537; 92; 4; 92; 0; 0 |], true, 4627798119845996939L);
    ("wheel24/pareto", [| 4; 92; 460; 522; 92; 4; 92; 0; 0 |], true, 4630779811978220125L);
    ("wheel24/exp+bw", [| 4; 92; 508; 570; 92; 4; 92; 0; 0 |], true, 4627759730863968216L);
    ("wheel24/uniform+faults", [| 5; 80; 531; 581; 92; 5; 80; 11; 24 |], true, 4626817674210718913L);
    ("wheel24/exp+bw+faults", [| 5; 80; 579; 630; 92; 5; 80; 12; 24 |], true, 4630786869528379246L);
    ("rmat-s6/const", [| 5; 188; 1233; 1376; 188; 5; 188; 0; 0 |], true, 4622945017495814144L);
    ("rmat-s6/uniform", [| 5; 188; 1268; 1316; 188; 5; 188; 0; 0 |], true, 4624792711315769618L);
    ("rmat-s6/exp", [| 5; 188; 1211; 1355; 188; 5; 188; 0; 0 |], true, 4627664168075123906L);
    ("rmat-s6/pareto", [| 5; 188; 1230; 1393; 188; 5; 188; 0; 0 |], true, 4638035113926226018L);
    ("rmat-s6/exp+bw", [| 5; 188; 1203; 1323; 188; 5; 188; 0; 0 |], true, 4628794699946360477L);
    ("rmat-s6/uniform+faults", [| 5; 162; 1102; 1155; 187; 5; 162; 24; 46 |], true, 4627122619869503008L);
    ("rmat-s6/exp+bw+faults", [| 5; 161; 1134; 1239; 187; 5; 161; 24; 46 |], true, 4630739376756915882L);
  ]

(* label, [| msgs; events; queue_hwm |], quiesced, sim_time bits *)
let native_pins =
  [
    ("bfs/grid6x6/const", [| 120; 120; 24 |], true, 4622382067542392832L);
    ("leader/grid6x6/const", [| 720; 720; 127 |], true, 4622382067542392832L);
    ("bfs/grid6x6/uniform", [| 120; 120; 26 |], true, 4621292961964531975L);
    ("leader/grid6x6/uniform", [| 824; 824; 180 |], true, 4621898770712530720L);
    ("bfs/grid6x6/exp", [| 183; 183; 54 |], true, 4621777029351250568L);
    ("leader/grid6x6/exp", [| 585; 585; 192 |], true, 4620035048343439551L);
    ("bfs/grid6x6/pareto", [| 166; 166; 46 |], true, 4628730350675289128L);
    ("leader/grid6x6/pareto", [| 692; 692; 198 |], true, 4630179354933053955L);
    ("bfs/grid6x6/exp+bw", [| 125; 125; 35 |], true, 4623965842004295736L);
    ("leader/grid6x6/exp+bw", [| 723; 723; 179 |], true, 4626307331081862956L);
    ("bfs/wheel24/const", [| 92; 92; 63 |], true, 4613937818241073152L);
    ("leader/wheel24/const", [| 230; 230; 138 |], true, 4611686018427387904L);
    ("bfs/wheel24/uniform", [| 95; 95; 62 |], true, 4615401356279845805L);
    ("leader/wheel24/uniform", [| 188; 188; 117 |], true, 4613283465148222468L);
    ("bfs/wheel24/exp", [| 178; 178; 81 |], true, 4619088533935207683L);
    ("leader/wheel24/exp", [| 200; 200; 110 |], true, 4618795502987140413L);
    ("bfs/wheel24/pareto", [| 110; 110; 54 |], true, 4627970551549595124L);
    ("leader/wheel24/pareto", [| 185; 185; 106 |], true, 4627562503217529176L);
    ("bfs/wheel24/exp+bw", [| 101; 101; 54 |], true, 4622282681988230523L);
    ("leader/wheel24/exp+bw", [| 212; 212; 104 |], true, 4619546050013145934L);
    ("bfs/rmat-s6/const", [| 188; 188; 123 |], true, 4616189618054758400L);
    ("leader/rmat-s6/const", [| 1149; 1149; 450 |], true, 4618441417868443648L);
    ("bfs/rmat-s6/uniform", [| 188; 188; 123 |], true, 4615793764256124545L);
    ("leader/rmat-s6/uniform", [| 839; 839; 379 |], true, 4617661784990720766L);
    ("bfs/rmat-s6/exp", [| 280; 280; 160 |], true, 4618847417081417474L);
    ("leader/rmat-s6/exp", [| 763; 763; 442 |], true, 4618795502987140413L);
    ("bfs/rmat-s6/pareto", [| 209; 209; 113 |], true, 4627746897259657310L);
    ("leader/rmat-s6/pareto", [| 945; 945; 385 |], true, 4633782409343706448L);
    ("bfs/rmat-s6/exp+bw", [| 260; 260; 133 |], true, 4623136518005417756L);
    ("leader/rmat-s6/exp+bw", [| 946; 946; 426 |], true, 4624615733771689224L);
  ]

let check_pin (label, counts, flag, bits) (counts', flag', bits') =
  check_int (label ^ ": counts") (Array.length counts) (Array.length counts');
  Array.iteri
    (fun i c -> check_int (Printf.sprintf "%s: count %d" label i) c counts'.(i))
    counts;
  check (label ^ ": converged") flag flag';
  check (label ^ ": sim_time bits") true (Int64.equal bits bits')

let test_replay_pins () =
  let sync_cases =
    List.concat_map
      (fun (fam, g) ->
        List.map (fun (s, spec) -> (fam ^ "/" ^ s, g, spec, None)) pin_specs
        @ [
            (fam ^ "/uniform+faults", g, List.assoc "uniform" pin_specs,
             Some pin_plan);
            (fam ^ "/exp+bw+faults", g, List.assoc "exp+bw" pin_specs,
             Some pin_plan);
          ])
      (pin_families ())
  in
  check_int "sync pin count" (List.length sync_pins) (List.length sync_cases);
  List.iter2
    (fun ((label, _, _, _) as pin) (label', g, spec, faults) ->
      check (label ^ " label") true (String.equal label label');
      let _, st, r = Sync.run ?faults ~spec g (flood_algo 0) in
      check_pin pin
        ( [|
            r.Sync.pulses; r.Sync.data_msgs; r.Sync.ctrl_msgs; r.Sync.events;
            r.Sync.queue_hwm; st.N.rounds; st.N.messages; st.N.dropped;
            st.N.delayed;
          |],
          r.Sync.converged,
          Int64.bits_of_float r.Sync.sim_time ))
    sync_pins sync_cases;
  let native_cases =
    List.concat_map
      (fun (fam, g) ->
        List.concat_map
          (fun (s, spec) ->
            let tag algo = algo ^ "/" ^ fam ^ "/" ^ s in
            [
              (tag "bfs", snd (Native.run ~spec g (Native.bfs ~root:0)));
              (tag "leader", snd (Native.run ~spec g Native.leader));
            ])
          pin_specs)
      (pin_families ())
  in
  check_int "native pin count" (List.length native_pins)
    (List.length native_cases);
  List.iter2
    (fun ((label, _, _, _) as pin) (label', (r : Native.report)) ->
      check (label ^ " label") true (String.equal label label');
      check_pin pin
        ( [| r.Native.msgs; r.Native.events; r.Native.queue_hwm |],
          r.Native.quiesced,
          Int64.bits_of_float r.Native.sim_time ))
    native_pins native_cases

let suite =
  [
    ("event heap: deterministic (time, edge, seq) order", `Quick,
     test_event_heap_order);
    ("stream registry: constants + duplicate check", `Quick,
     test_stream_registry);
    ("oracle: six algorithms, 12 families x 3 seeds", `Slow, oracle_all_six);
    ("oracle: sync-equality check helper", `Quick, test_sync_equal);
    ("native BFS matches synchronous distances", `Quick, test_native_bfs);
    ("native flood-max elects the maximum id", `Quick, test_native_leader);
    ("constant latency: sim-time bounds per pulse", `Quick,
     test_constant_latency_bounds);
    ("bandwidth caps serialize without changing results", `Quick,
     test_bandwidth_caps);
    ("delay plan: time stretches, results identical", `Quick,
     test_delay_plan_stretches_time);
    ("drop plan: resilient links converge on the substrate", `Quick,
     test_drop_plan_with_resilient);
    ("determinism: same spec replays bit-for-bit", `Quick, test_determinism);
    ("replay pins: both executors, four models, caps, faults", `Quick,
     test_replay_pins);
  ]

let () =
  Alcotest.run "asynch"
    [ ("asynch", suite @ [ QCheck_alcotest.to_alcotest prop_event_heap_model ]) ]
