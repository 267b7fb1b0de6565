(* Native event-driven algorithms: no rounds, no synchronizer — a node
   reacts to each message arrival as it happens, in the style of the
   classic asynchronous-model algorithms (AsyncLCR and friends).  Running
   the same problem natively and under the α-synchronizer on the same
   latency spec is what makes the synchronization overhead measurable.

   The executor shares the determinism contract with Synchronizer: a
   binary heap keyed (delivery_time, directed_edge, seq), latencies from
   the spec's named streams in event-processing order, FIFO per-link
   serialization under bandwidth caps.  Termination is quiescence: the
   run ends when no message is in flight. *)

module Graph = Graphlib.Graph
module EQ = Graphlib.Pqueue.Event

(* the simulated clock: a flat float record, so advancing it never boxes *)
type clock = { mutable now : float }

type ctx = {
  g : Graph.t;
  mutable node : int;
  clock : clock;
  mutable emit : int -> int -> int array -> unit;  (* dst, edge id, payload *)
}

let node ctx = ctx.node
let now ctx = ctx.clock.now
let graph ctx = ctx.g

let send ctx w payload =
  let e = Graph.find_edge_id ctx.g ctx.node w in
  if e < 0 then
    invalid_arg
      (Printf.sprintf "Asynch.Native: send to a non-neighbor (%d -> %d)"
         ctx.node w)
  else ctx.emit w e payload

let send_all ctx payload =
  let g = ctx.g and v = ctx.node in
  for p = Graph.adj_offset g v to Graph.adj_offset g (v + 1) - 1 do
    ctx.emit (Graph.adj_dst g p) (Graph.adj_eid g p) payload
  done

type 'st algo = {
  init : Graph.t -> int -> 'st;
  start : ctx -> 'st -> 'st;
  receive : ctx -> src:int -> payload:int array -> 'st -> 'st;
}

type report = {
  sim_time : float;
  msgs : int;
  events : int;
  queue_hwm : int;
  quiesced : bool;
}

let run ?(bandwidth = 4) ?(max_events = 10_000_000) ~spec g algo =
  let n = Graph.n g in
  let m = Graph.m g in
  let lat = Latency.sampler spec in
  let caps = Latency.edge_caps spec ~m in
  let eq = EQ.create () in
  (* an event's payload is its message's slot; its direction is the key *)
  let slots = Slots.create () in
  let seq = ref 0 in
  let msgs = ref 0 and events = ref 0 in
  let last_depart = Array.make (2 * m) 0.0 in
  let states = Array.init n (fun v -> algo.init g v) in
  let clk = { now = 0.0 } in
  let ctx = { g; node = -1; clock = clk; emit = (fun _ _ _ -> ()) } in
  let emit w e payload =
    let v = ctx.node in
    let words = Array.length payload in
    if words > bandwidth then
      invalid_arg
        (Printf.sprintf
           "Asynch.Native: message exceeds bandwidth (%d -> %d, %d words > %d)"
           v w words bandwidth);
    let dir = Congest.Network.dir_of g e v in
    incr msgs;
    let l = Latency.draw lat in
    let depart =
      match caps with
      | None -> clk.now
      | Some c ->
          let tx = float_of_int words /. c.(e) in
          let d = Float.max clk.now last_depart.(dir) +. tx in
          last_depart.(dir) <- d;
          d
    in
    let slot = Slots.alloc slots (Array.copy payload) in
    incr seq;
    EQ.push eq ~time:(depart +. l) ~a:dir ~b:!seq slot
  in
  ctx.emit <- emit;
  for v = 0 to n - 1 do
    ctx.node <- v;
    states.(v) <- algo.start ctx states.(v)
  done;
  let quiesced = ref true in
  (let continue = ref true in
   while !continue do
     if !events >= max_events then begin
       quiesced := false;
       continue := false
     end
     else if EQ.is_empty eq then continue := false
     else begin
       clk.now <- EQ.min_time eq;
       let dir = EQ.min_a eq in
       let slot = EQ.pop eq in
       incr events;
       let payload = Slots.payload slots slot in
       Slots.release slots slot;
       let e = dir / 2 in
       let u = Graph.edge_u g e and v = Graph.edge_v g e in
       let src = if dir land 1 = 0 then u else v in
       let dst = if dir land 1 = 0 then v else u in
       ctx.node <- dst;
       states.(dst) <- algo.receive ctx ~src ~payload states.(dst)
     end
   done);
  ( states,
    {
      sim_time = clk.now;
      msgs = !msgs;
      events = !events;
      queue_hwm = EQ.high_water eq;
      quiesced = !quiesced;
    } )

(* ---------- native BFS: asynchronous distance flooding ----------

   The root announces distance 0; every node adopts any strictly better
   distance it hears and re-floods.  On unit weights this asynchronous
   Bellman-Ford converges to exact BFS distances at quiescence, whatever
   the latency schedule — the oracle against the synchronous Congest.Bfs
   distances is exact. *)

type bfs_state = { dist : int; parent : int }

let bfs ~root =
  {
    init =
      (fun _ v ->
        if v = root then { dist = 0; parent = root }
        else { dist = max_int; parent = -1 });
    start =
      (fun ctx st ->
        if ctx.node = root then send_all ctx [| 0 |];
        st);
    receive =
      (fun ctx ~src ~payload st ->
        let d = payload.(0) + 1 in
        if d < st.dist then begin
          send_all ctx [| d |];
          { dist = d; parent = src }
        end
        else st);
  }

(* ---------- native leader election: flood-max ----------

   Every node floods the largest identifier it has seen (AsyncLCR
   generalized from rings to arbitrary graphs); at quiescence every
   node knows the maximum id in its component and the maximum elects
   itself. *)

type leader_state = { best : int; is_leader : bool }

let leader =
  {
    init = (fun _ v -> { best = v; is_leader = true });
    start =
      (fun ctx st ->
        send_all ctx [| st.best |];
        st);
    receive =
      (fun ctx ~src:_ ~payload st ->
        let b = payload.(0) in
        if b > st.best then begin
          send_all ctx [| b |];
          { best = b; is_leader = false }
        end
        else st);
  }
