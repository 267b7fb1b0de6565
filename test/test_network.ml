(* Tests for the CONGEST executor itself: the edge-indexed message
   fabric (duplicate-send / non-neighbor / bandwidth enforcement, and its
   delivery contract on random multigraph streams), the active-node
   worklist (quiescent nodes are skipped, mail reactivates them), and a
   property check of the distributed BFS against the centralized
   traversal. *)

open Graphlib
module N = Congest.Network

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- fabric violations ---------- *)

let test_bandwidth_violation () =
  let g = Generators.path 2 in
  let algo =
    {
      N.init = (fun _ _ -> false);
      step =
        (fun ctx _ ->
          if N.node ctx = 0 then N.send ctx 1 (Array.make 9 0);
          true);
      finished = (fun st -> st);
    }
  in
  Alcotest.check_raises "oversize payload"
    (Invalid_argument
       "Congest: message exceeds bandwidth (round 1, 0 -> 1, 9 words > 8)")
    (fun () -> ignore (N.run ~bandwidth:8 g algo))

let test_duplicate_send () =
  let g = Generators.star 4 in
  let algo =
    {
      N.init = (fun _ _ -> false);
      step =
        (fun ctx _ ->
          if N.node ctx = 0 then begin
            (* send_all covers the center->1 slot; the explicit resend must
               trip the occupancy check *)
            N.send_all ctx [| 1 |];
            N.send ctx 1 [| 2 |]
          end;
          true);
      finished = (fun st -> st);
    }
  in
  Alcotest.check_raises "slot already occupied"
    (Invalid_argument
       "Congest: two messages on one edge in one round (round 1, 0 -> 1, 1 \
        words)") (fun () -> ignore (N.run g algo))

let test_non_neighbor () =
  let g = Generators.path 4 in
  let algo =
    {
      N.init = (fun _ _ -> false);
      step =
        (fun ctx _ ->
          if N.node ctx = 0 then N.send ctx 3 [| 1 |];
          true);
      finished = (fun st -> st);
    }
  in
  Alcotest.check_raises "no such edge"
    (Invalid_argument "Congest: send to a non-neighbor (round 1, 0 -> 3)")
    (fun () -> ignore (N.run g algo))

(* ---------- the delivery contract ---------- *)

(* round 1: every node broadcasts its id with send_all; round 2: it sends
   its id to each neighbour with send; every step records its inbox as
   (sender, word 0) pairs, newest first *)
type probe = { inboxes : (int * int) array list; steps : int }

let probe =
  {
    N.init = (fun _ _ -> { inboxes = []; steps = 0 });
    step =
      (fun ctx st ->
        let v = N.node ctx in
        let inbox =
          Array.init (N.inbox_size ctx) (fun i ->
              (N.inbox_sender ctx i, N.inbox_word ctx i 0))
        in
        (match N.round ctx with
        | 1 -> N.send_all ctx [| v |]
        | 2 -> Graph.iter_adj (N.graph ctx) v (fun w _ -> N.send ctx w [| v |])
        | _ -> ());
        { inboxes = inbox :: st.inboxes; steps = st.steps + 1 });
    finished = (fun st -> st.steps >= 3);
  }

(* every inbox after round 1 lists exactly v's neighbours in strictly
   descending id (neighbour ids are unique), each message carrying its
   sender; each directed edge carries one message per round, so the trace
   reads 4m messages and a busiest-edge load of 2; the α-synchronizer
   under Pareto latency lands in the same states and rounds *)
let fabric_contract g =
  let trace = Congest.Trace.create g in
  let states, stats = N.run ~trace g probe in
  let inboxes_ok v st =
    let nbrs = Graph.neighbors g v in
    Array.sort (fun a b -> Int.compare b a) nbrs;
    let expected = Array.map (fun w -> (w, w)) nbrs in
    match st.inboxes with
    | [ r3; r2; r1 ] -> r1 = [||] && r2 = expected && r3 = expected
    | _ -> false
  in
  let m = Graph.m g in
  let spec =
    Asynch.Latency.make ~seed:17 (Asynch.Latency.Pareto { alpha = 1.5; xmin = 0.5 })
  in
  let (async_states, async_stats), _ =
    Asynch.Synchronizer.with_substrate ~spec (fun () -> N.run g probe)
  in
  stats.N.converged && stats.N.rounds = 3
  && Array.for_all Fun.id (Array.mapi inboxes_ok states)
  && Congest.Trace.messages trace = 4 * m
  && Congest.Trace.max_edge_load trace = (if m = 0 then 0 else 2)
  && async_states = states
  && async_stats.N.rounds = stats.N.rounds

(* a raw builder stream over n vertices: several components (edges stay
   inside one of up to four residue classes), a few trailing isolated
   vertices, self-loops, and duplicates in both orientations *)
let raw_multigraph seed =
  let st = Random.State.make [| seed |] in
  let n = 1 + Random.State.int st 40 in
  let live = max 1 (n - Random.State.int st 3) in
  let classes = 1 + Random.State.int st 4 in
  let b = Graph.Builder.create n in
  for _ = 1 to Random.State.int st (4 * n) do
    let u = Random.State.int st live in
    let c = u mod classes in
    let v = c + (classes * Random.State.int st (((live - 1 - c) / classes) + 1)) in
    Graph.Builder.add_edge b u v;
    match Random.State.int st 6 with
    | 0 | 1 -> Graph.Builder.add_edge b v u
    | 2 -> Graph.Builder.add_edge b u v
    | _ -> ()
  done;
  Graph.Builder.build b

let prop_fabric_contract =
  QCheck.Test.make ~name:"fabric delivery contract on raw multigraph streams"
    ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed -> fabric_contract (raw_multigraph seed))

let test_fabric_contract_fixed () =
  check "edgeless graph" true (fabric_contract (Graph.of_edges 6 []));
  check "70-leaf star" true (fabric_contract (Generators.star 71))

(* ---------- activity tracking ---------- *)

(* path 0-1-2: node 0 counts three rounds then pings node 1; nodes 1 and 2
   start finished, so only mail may step them. active_steps counts exactly
   the steps taken: 3 for node 0, 1 for node 1, 0 for node 2. *)
let test_quiescent_nodes_skipped () =
  let g = Generators.path 3 in
  let algo =
    {
      N.init = (fun _ v -> if v = 0 then `Count 0 else `Idle);
      step =
        (fun ctx st ->
          match st with
          | `Count c ->
              if c + 1 = 3 then begin
                N.send ctx 1 [| 7 |];
                `Stop
              end
              else `Count (c + 1)
          | `Idle when N.inbox_size ctx > 0 -> `Got
          | st -> st);
      finished = (fun st -> match st with `Count _ -> false | _ -> true);
    }
  in
  let states, stats = N.run g algo in
  check "converged" true stats.N.converged;
  check "node 1 got the ping" true (states.(1) = `Got);
  check_int "rounds" 4 stats.N.rounds;
  check_int "active steps" 4 stats.N.active_steps

(* same shape, but the ping reactivates node 1, which then counts two more
   rounds on its own before finishing: the worklist must keep it awake
   after the mail that woke it is gone *)
let test_mail_reactivates () =
  let g = Generators.path 3 in
  let algo =
    {
      N.init = (fun _ v -> if v = 0 then `Count 0 else `Idle);
      step =
        (fun ctx st ->
          match st with
          | `Count c ->
              if c + 1 = 3 then begin
                N.send ctx 1 [| 7 |];
                `Stop
              end
              else `Count (c + 1)
          | `Idle when N.inbox_size ctx > 0 -> `Wake 0
          | `Wake k -> if k + 1 = 2 then `Stop else `Wake (k + 1)
          | st -> st);
      finished =
        (fun st -> match st with `Count _ | `Wake _ -> false | _ -> true);
    }
  in
  let states, stats = N.run g algo in
  check "converged" true stats.N.converged;
  check "node 1 ran to completion" true (states.(1) = `Stop);
  check_int "rounds" 6 stats.N.rounds;
  (* node 0: rounds 1-3; node 1: rounds 4-6 *)
  check_int "active steps" 6 stats.N.active_steps

let test_max_rounds_cap () =
  let g = Generators.cycle 5 in
  let algo =
    {
      N.init = (fun _ _ -> ());
      step = (fun _ () -> ());
      finished = (fun () -> false);
    }
  in
  let _, stats = N.run ~max_rounds:17 g algo in
  check "not converged" false stats.N.converged;
  check_int "capped" 17 stats.N.rounds

(* ---------- BFS vs the centralized traversal ---------- *)

let prop_bfs_matches_traversal =
  QCheck.Test.make ~name:"distributed BFS levels equal Traversal.bfs" ~count:60
    QCheck.(int_range 1 1000)
    (fun seed ->
      let n = 5 + (seed mod 60) in
      let g = Generators.erdos_renyi ~seed:(31 * seed) n 0.2 in
      QCheck.assume (Traversal.is_connected g);
      let root = seed mod n in
      let states, stats = Congest.Bfs.run g ~root in
      let dist = Traversal.bfs g root in
      stats.N.converged
      && Array.for_all2
           (fun st d -> st.Congest.Bfs.dist = d)
           states dist
      && Array.for_all
           (fun st ->
             st.Congest.Bfs.parent = -1
             || dist.(st.Congest.Bfs.parent) = st.Congest.Bfs.dist - 1)
           states)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "network"
    [
      ( "fabric",
        [
          Alcotest.test_case "bandwidth violation raises" `Quick
            test_bandwidth_violation;
          Alcotest.test_case "duplicate send raises" `Quick test_duplicate_send;
          Alcotest.test_case "non-neighbor send raises" `Quick test_non_neighbor;
          Alcotest.test_case "delivery contract: edgeless, star" `Quick
            test_fabric_contract_fixed;
        ]
        @ qsuite [ prop_fabric_contract ] );
      ( "activity",
        [
          Alcotest.test_case "quiescent nodes are skipped" `Quick
            test_quiescent_nodes_skipped;
          Alcotest.test_case "mail reactivates a finished node" `Quick
            test_mail_reactivates;
          Alcotest.test_case "max_rounds caps divergence" `Quick
            test_max_rounds_cap;
        ] );
      ("bfs", qsuite [ prop_bfs_matches_traversal ]);
    ]
