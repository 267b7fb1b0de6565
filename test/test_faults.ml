(* Tests for the fault-injection and resilience layer (lib/faults,
   Network ?faults, Resilient): zero-effect plans are byte-identical to no
   plan, fault schedules are a pure function of the seed (including across
   pool job counts), the ack/retry combinator delivers exactly-once under
   loss, and fail-stop crashes degrade BFS gracefully instead of wedging
   it. *)

module Graph = Graphlib.Graph
module Generators = Graphlib.Generators
module Network = Congest.Network
module Bfs = Congest.Bfs
module Sssp = Congest.Sssp
module Leader = Congest.Leader
module Mst = Congest.Mst
module Resilient = Congest.Resilient
module Rng = Faults.Rng
module Degrade = Faults.Degrade

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* a plan that engages the fault machinery but can never fire: the single
   scheduled crash is far beyond any round these runs reach *)
let inert_plan = Faults.make ~crashes:[ { Faults.node = 0; at_round = 1_000_000 } ] 42

let stats_equal a b =
  a.Network.rounds = b.Network.rounds
  && a.Network.messages = b.Network.messages
  && a.Network.words = b.Network.words
  && a.Network.active_steps = b.Network.active_steps
  && a.Network.converged = b.Network.converged
  && a.Network.dropped = b.Network.dropped
  && a.Network.delayed = b.Network.delayed
  && a.Network.retried = b.Network.retried

(* ---------- rng streams ---------- *)

let test_rng_streams () =
  (* the legacy derivation is preserved exactly *)
  let a = Rng.algo 7 and b = Random.State.make [| 7 |] in
  for _ = 1 to 64 do
    check_int "algo matches legacy" (Random.State.bits b) (Random.State.bits a)
  done;
  (* named streams: deterministic, and independent of the algo stream and
     of each other *)
  let take st = Array.init 16 (fun _ -> Random.State.bits st) in
  let d1 = take (Rng.named ~seed:7 "faults.drop") in
  let d2 = take (Rng.named ~seed:7 "faults.drop") in
  check "named deterministic" true (d1 = d2);
  check "named differs from algo" false (d1 = take (Rng.algo 7));
  check "names separate streams" false
    (d1 = take (Rng.named ~seed:7 "faults.delay"));
  (* split: children of the same parent differ; replays are identical *)
  let p1 = Rng.named ~seed:9 "parent" in
  let c1 = take (Rng.split p1 "a") and c2 = take (Rng.split p1 "b") in
  check "siblings differ" false (c1 = c2);
  let p2 = Rng.named ~seed:9 "parent" in
  check "split replays" true (take (Rng.split p2 "a") = c1)

(* ---------- plan validation ---------- *)

let test_plan_validation () =
  let g = Generators.path 4 in
  check "none is zero" true (Faults.is_zero Faults.none);
  check "inert plan is not zero" false (Faults.is_zero inert_plan);
  let raises f =
    match f () with
    | (_ : Faults.state) -> false
    | exception Invalid_argument _ -> true
  in
  check "drop rate 1 rejected" true
    (raises (fun () -> Faults.start (Faults.make ~drop:1.0 1) g));
  check "crash node range" true
    (raises (fun () ->
         Faults.start
           (Faults.make ~crashes:[ { Faults.node = 9; at_round = 1 } ] 1)
           g));
  check "link on non-edge" true
    (raises (fun () ->
         Faults.start
           (Faults.make
              ~links:[ { Faults.u = 0; v = 3; from_round = 1; to_round = 2 } ]
              1)
           g))

(* ---------- zero-effect plans are byte-identical ---------- *)

let test_zero_plan_identity () =
  let g = Generators.cycle 12 in
  (* stats carry totals only; each compared run records into a fresh
     trace so the busiest edge and its load are compared too *)
  let traced run =
    let t = Congest.Trace.create g in
    let r = run t in
    (r, Congest.Trace.summary t)
  in
  (* BFS *)
  let (d0, s0), t0 = traced (fun trace -> Bfs.run ~trace g ~root:0) in
  let (d1, s1), t1 =
    traced (fun trace -> Bfs.run ~trace ~faults:Faults.none g ~root:0)
  in
  let (d2, s2), t2 =
    traced (fun trace -> Bfs.run ~trace ~faults:inert_plan g ~root:0)
  in
  check "bfs states, zero plan" true (d0 = d1);
  check "bfs stats, zero plan" true (stats_equal s0 s1);
  check "bfs trace, zero plan" true (t0 = t1);
  check "bfs states, inert plan" true (d0 = d2);
  check "bfs stats, inert plan" true (stats_equal s0 s2);
  check "bfs trace, inert plan" true (t0 = t2);
  (* SSSP (floats exercise multi-word payloads through the queue path) *)
  let w = Graph.random_weights ~state:(Rng.algo 3) g in
  let r0, t0 = traced (fun trace -> Sssp.bellman_ford ~trace g w ~source:0) in
  let r2, t2 =
    traced (fun trace ->
        Sssp.bellman_ford ~trace ~faults:inert_plan g w ~source:0)
  in
  check "sssp dist, inert plan" true (r0.Sssp.dist = r2.Sssp.dist);
  check "sssp stats, inert plan" true (stats_equal r0.Sssp.stats r2.Sssp.stats);
  check "sssp trace, inert plan" true (t0 = t2);
  (* leader election (multi-stage composition) *)
  let l0, t0 = traced (fun trace -> Leader.elect ~trace g) in
  let l2, t2 = traced (fun trace -> Leader.elect ~trace ~faults:inert_plan g) in
  check "leader, inert plan" true
    (l0.Leader.leader = l2.Leader.leader
    && l0.Leader.n_estimate = l2.Leader.n_estimate
    && l0.Leader.d_estimate = l2.Leader.d_estimate
    && stats_equal l0.Leader.stats l2.Leader.stats);
  check "leader trace, inert plan" true (t0 = t2);
  (* MST through aggregation phases *)
  let mw = Graph.random_weights ~state:(Rng.algo 5) g in
  let m0 = Mst.boruvka ~constructor:Mst.no_shortcut_constructor g mw in
  let m2 =
    Mst.boruvka ~faults:inert_plan ~constructor:Mst.no_shortcut_constructor g mw
  in
  check "mst, inert plan" true
    (m0.Mst.mst_edges = m2.Mst.mst_edges
    && m0.Mst.rounds = m2.Mst.rounds
    && m0.Mst.messages = m2.Mst.messages)

(* traces must agree too: same per-round series, zero fault counters *)
let test_zero_plan_trace_identity () =
  let g = Generators.wheel 9 in
  let t0 = Congest.Trace.create g and t2 = Congest.Trace.create g in
  let _ = Bfs.run ~trace:t0 g ~root:0 in
  let _ = Bfs.run ~trace:t2 ~faults:inert_plan g ~root:0 in
  let s0 = Congest.Trace.summary t0 and s2 = Congest.Trace.summary t2 in
  check "trace summaries equal" true (s0 = s2);
  check "trace lines equal" true
    (Congest.Trace.summary_to_string s0 = Congest.Trace.summary_to_string s2);
  check "per-round series equal" true
    (Congest.Trace.round_messages t0 = Congest.Trace.round_messages t2
    && Congest.Trace.max_load_series t0 = Congest.Trace.max_load_series t2);
  check_int "no drops recorded" 0 (Congest.Trace.dropped t2);
  check_int "no delays recorded" 0 (Congest.Trace.delayed t2)

(* ---------- fault schedules are a pure function of the seed ---------- *)

let faulty_bfs_fingerprint seed =
  let g = Generators.torus_grid 6 6 in
  let plan = Faults.make ~drop:0.1 ~delay:0.2 ~max_delay:3 seed in
  let dist, stats = Bfs.run ~faults:plan g ~root:0 in
  ( Array.map (fun s -> s.Bfs.dist) dist,
    stats.Network.rounds,
    stats.Network.dropped,
    stats.Network.delayed )

let test_schedule_determinism () =
  check "same seed, same run" true
    (faulty_bfs_fingerprint 11 = faulty_bfs_fingerprint 11);
  check "different seed, different schedule" false
    (let _, _, d1, l1 = faulty_bfs_fingerprint 11
     and _, _, d2, l2 = faulty_bfs_fingerprint 12 in
     (d1, l1) = (d2, l2))

let test_schedule_across_jobs () =
  (* the same seeded cells through a 1-worker and a 2-worker pool: fault
     schedules must not depend on domain placement *)
  let cells = [| 11; 12; 13; 14 |] in
  let run jobs =
    Exec.Pool.with_pool ~jobs (fun p ->
        Exec.Pool.map_cells p ~f:(fun _ seed -> faulty_bfs_fingerprint seed) cells)
  in
  check "jobs=1 = jobs=2" true (run 1 = run 2)

(* ---------- drops degrade, delays slow, link failures reroute ---------- *)

let test_drop_degrades_bfs () =
  let g = Generators.torus_grid 6 6 in
  let plan = Faults.make ~drop:0.3 11 in
  let dist, stats = Bfs.run ~faults:plan g ~root:0 in
  check "something dropped" true (stats.Network.dropped > 0);
  check "run still terminates" true stats.Network.converged;
  let reference, _ = Bfs.run g ~root:0 in
  let report =
    Degrade.int_dists
      ~reference:(Array.map (fun s -> s.Bfs.dist) reference)
      ~observed:(Array.map (fun s -> s.Bfs.dist) dist)
      ()
  in
  check_int "all vertices compared" (Graph.n g) report.Degrade.compared;
  (* lossy flooding can only lose or lengthen paths, never shorten them *)
  Array.iteri
    (fun v r ->
      let o = dist.(v).Bfs.dist in
      check "no shortcut distances" true (o = -1 || o >= r.Bfs.dist))
    reference

let test_delay_slows_but_delivers () =
  let g = Generators.path 10 in
  let plan = Faults.make ~delay:0.5 ~max_delay:4 21 in
  let dist, stats = Bfs.run ~faults:plan g ~root:0 in
  let clean, clean_stats = Bfs.run g ~root:0 in
  check "delays recorded" true (stats.Network.delayed > 0);
  check "nothing dropped" true (stats.Network.dropped = 0);
  check "converged" true stats.Network.converged;
  check "slower than clean" true (stats.Network.rounds >= clean_stats.Network.rounds);
  (* nothing is lost, so every node is reached (though possibly with a
     stale, longer distance: plain BFS never re-announces improvements) *)
  Array.iteri
    (fun v s ->
      check "reached" true (s.Bfs.dist >= 0);
      check "not shorter than true distance" true (s.Bfs.dist >= clean.(v).Bfs.dist))
    dist

let test_link_failure_reroutes () =
  let g = Generators.cycle 8 in
  (* edge (0,1) is down for the whole run: 1 must be reached the long way *)
  let plan =
    Faults.make ~links:[ { Faults.u = 0; v = 1; from_round = 1; to_round = 10_000 } ] 5
  in
  let dist, stats = Bfs.run ~faults:plan g ~root:0 in
  check "converged" true stats.Network.converged;
  check "link drops counted" true (stats.Network.dropped > 0);
  check_int "rerouted distance" 7 dist.(1).Bfs.dist;
  check_int "unaffected side" 1 dist.(7).Bfs.dist

(* ---------- fail-stop crashes ---------- *)

let test_crash_surviving_component () =
  (* path 0-1-2-3-4, node 2 dead from round 1: the component of the root
     gets exact distances, the far side is unreached, the run terminates *)
  let g = Generators.path 5 in
  let plan = Faults.make ~crashes:[ { Faults.node = 2; at_round = 1 } ] 3 in
  let dist, stats = Bfs.run ~faults:plan g ~root:0 in
  check "terminates" true stats.Network.converged;
  check_int "root" 0 dist.(0).Bfs.dist;
  check_int "neighbor" 1 dist.(1).Bfs.dist;
  check_int "crashed node unreached" (-1) dist.(2).Bfs.dist;
  check_int "cut off" (-1) dist.(3).Bfs.dist;
  check_int "cut off" (-1) dist.(4).Bfs.dist;
  (* on a cycle the flood routes around the dead node *)
  let g = Generators.cycle 8 in
  let plan = Faults.make ~crashes:[ { Faults.node = 2; at_round = 1 } ] 3 in
  let dist, stats = Bfs.run ~faults:plan g ~root:0 in
  check "terminates" true stats.Network.converged;
  check_int "before the hole" 1 dist.(1).Bfs.dist;
  check_int "behind the hole" 5 dist.(3).Bfs.dist;
  check_int "far side" 4 dist.(4).Bfs.dist

let test_crash_mid_run () =
  (* a node that crashes after relaying keeps its partial work: the flood
     it already forwarded stands, later messages to it are dropped *)
  let g = Generators.path 6 in
  let plan = Faults.make ~crashes:[ { Faults.node = 1; at_round = 3 } ] 3 in
  let dist, stats = Bfs.run ~faults:plan g ~root:0 in
  check "terminates" true stats.Network.converged;
  (* node 1 was reached (round 2) before dying in round 3; its round-2
     announcement still reaches node 2, so the whole path is covered *)
  check_int "relayed before crash" 1 dist.(1).Bfs.dist;
  check_int "flood continues" 2 dist.(2).Bfs.dist;
  check_int "flood continues" 5 dist.(5).Bfs.dist

(* ---------- one plan, every fault kind ---------- *)

(* drop, delay, a link failure and a crash in one plan.  The gauntlet's
   order — link check, drop roll, delay roll, then the dead-receiver
   refusal — decides which stream draws each message consumes, so moving
   any step shifts these counts.  Pinned per family on both engines: the
   synchronous one refuses a dead receiver at send time, the
   α-synchronizer at arrival. *)
let combined_stats ~async g ~link:(u, v) ~crash =
  let plan =
    Faults.make ~drop:0.15 ~delay:0.3 ~max_delay:2
      ~links:[ { Faults.u; v; from_round = 1; to_round = 3 } ]
      ~crashes:[ { Faults.node = crash; at_round = 3 } ]
      23
  in
  let run () = snd (Bfs.run ~faults:plan g ~root:0) in
  let s =
    if async then
      let spec = Asynch.Latency.make ~seed:5 (Asynch.Latency.Exponential 1.0) in
      fst (Asynch.Synchronizer.with_substrate ~spec run)
    else run ()
  in
  [ s.Network.rounds; s.Network.messages; s.Network.dropped; s.Network.delayed ]

let test_combined_plan () =
  List.iter
    (fun (name, g, link, crash, sync, async) ->
      Alcotest.(check (list int))
        (name ^ ": sync rounds/messages/dropped/delayed")
        sync
        (combined_stats ~async:false g ~link ~crash);
      Alcotest.(check (list int))
        (name ^ ": asynch rounds/messages/dropped/delayed")
        async
        (combined_stats ~async:true g ~link ~crash))
    [
      ( "torus 6x6",
        Generators.torus_grid 6 6,
        (0, 1),
        8,
        [ 14; 120; 20; 40 ],
        [ 8; 124; 20; 41 ] );
      ("wheel 16", Generators.wheel 16, (0, 1), 15, [ 14; 12; 9; 6 ], [ 8; 18; 9; 9 ]);
    ]

(* ---------- the resilient link ---------- *)

let test_resilient_exactly_once () =
  (* ten reliable messages from 0 to 1 across a 40%-lossy edge: each is
     delivered exactly once, in order *)
  let g = Generators.path 2 in
  let received = ref [] in
  let algo =
    {
      Network.init =
        (fun g v ->
          let link = Resilient.Link.create ~bandwidth:1 g v in
          if v = 0 then
            for i = 1 to 10 do
              Resilient.Link.send link ~dst:1 [| 100 + i |]
            done;
          link);
      step =
        (fun ctx link ->
          Resilient.Link.poll link ctx (fun ~src:_ payload ->
              received := payload.(0) :: !received);
          Resilient.Link.flush link ctx;
          link);
      finished = Resilient.Link.idle;
    }
  in
  let plan = Faults.make ~drop:0.4 17 in
  let links, stats =
    Network.run ~bandwidth:(Resilient.Link.header_words + 1)
      ~max_rounds:10_000 ~faults:plan g algo
  in
  check "converged" true stats.Network.converged;
  check "drops happened" true (stats.Network.dropped > 0);
  check "retries happened" true (stats.Network.retried > 0);
  check_int "nothing given up" 0
    (Array.fold_left (fun a l -> a + Resilient.Link.given_up l) 0 links);
  check "exactly once, in order" true
    (List.rev !received = List.init 10 (fun i -> 101 + i))

let test_resilient_bfs_under_drop () =
  let g = Generators.torus_grid 5 5 in
  let plan = Faults.make ~drop:0.25 29 in
  let r =
    Resilient.bfs ~max_rounds:20_000
      ~config:{ Resilient.Link.timeout = 4; budget = 1_000 } ~faults:plan g
      ~root:0
  in
  check "resilient bfs succeeds under drop" true r.Resilient.success;
  check "paid for it in retries" true (r.Resilient.stats.Network.retried > 0);
  (* and the clean run reports an exact, retry-free profile *)
  let c = Resilient.bfs g ~root:0 in
  check "clean resilient bfs exact" true c.Resilient.success;
  check_int "clean run retries" 0 c.Resilient.stats.Network.retried

(* ---------- degradation reports ---------- *)

let test_degrade_reports () =
  let reference = [| 0; 1; 2; 3; -1 |] in
  let observed = [| 0; 1; 4; -1; -1 |] in
  let r = Degrade.int_dists ~reference ~observed () in
  check_int "compared skips unreachable reference" 4 r.Degrade.compared;
  check_int "unreached" 1 r.Degrade.unreached;
  check_int "wrong" 1 r.Degrade.wrong;
  check "max err" true (r.Degrade.max_err = 2.0);
  check "not exact" false (Degrade.exact r);
  let exact = Degrade.int_dists ~reference ~observed:reference () in
  check "identical is exact" true (Degrade.exact exact);
  check "weight gap" true
    (abs_float (Degrade.weight_gap ~reference:10.0 ~observed:11.0 -. 0.1) < 1e-9)

let () =
  Alcotest.run "faults"
    [
      ( "rng",
        [
          Alcotest.test_case "stream derivations" `Quick test_rng_streams;
          Alcotest.test_case "plan validation" `Quick test_plan_validation;
        ] );
      ( "zero-plan",
        [
          Alcotest.test_case "algorithms identical" `Quick test_zero_plan_identity;
          Alcotest.test_case "traces identical" `Quick
            test_zero_plan_trace_identity;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "per seed" `Quick test_schedule_determinism;
          Alcotest.test_case "across pool jobs" `Quick test_schedule_across_jobs;
        ] );
      ( "models",
        [
          Alcotest.test_case "drop degrades BFS" `Quick test_drop_degrades_bfs;
          Alcotest.test_case "delay slows, delivers" `Quick
            test_delay_slows_but_delivers;
          Alcotest.test_case "link failure reroutes" `Quick
            test_link_failure_reroutes;
          Alcotest.test_case "crash: surviving component" `Quick
            test_crash_surviving_component;
          Alcotest.test_case "crash mid-run" `Quick test_crash_mid_run;
          Alcotest.test_case "one plan, every fault kind" `Quick
            test_combined_plan;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "exactly-once under drop" `Quick
            test_resilient_exactly_once;
          Alcotest.test_case "resilient BFS under drop" `Quick
            test_resilient_bfs_under_drop;
          Alcotest.test_case "degradation reports" `Quick test_degrade_reports;
        ] );
    ]
