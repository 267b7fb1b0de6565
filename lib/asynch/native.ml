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

type ctx = {
  g : Graph.t;
  mutable node : int;
  mutable now : float;
  mutable emit : int -> int array -> unit;
}

let node ctx = ctx.node
let now ctx = ctx.now
let graph ctx = ctx.g
let send ctx w payload = ctx.emit w payload

let send_all ctx payload =
  let nbr = Graph.neighbors ctx.g ctx.node in
  for i = 0 to Array.length nbr - 1 do
    ctx.emit nbr.(i) payload
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
  (* event arena: payload + dir per in-flight message, free-listed *)
  let pay = ref (Array.make 64 [||]) in
  let dirs = ref (Array.make 64 0) in
  let len = ref 0 in
  let free = ref [] in
  let seq = ref 0 in
  let now = ref 0.0 in
  let msgs = ref 0 and events = ref 0 in
  let last_depart = Array.make (2 * m) 0.0 in
  let states = Array.init n (fun v -> algo.init g v) in
  let ctx = { g; node = -1; now = 0.0; emit = (fun _ _ -> ()) } in
  let emit w payload =
    let v = ctx.node in
    let e = Graph.find_edge_id g v w in
    if e < 0 then
      invalid_arg
        (Printf.sprintf "Asynch.Native: send to a non-neighbor (%d -> %d)" v w)
    else begin
      let words = Array.length payload in
      if words > bandwidth then
        invalid_arg
          (Printf.sprintf
             "Asynch.Native: message exceeds bandwidth (%d -> %d, %d words > \
              %d)"
             v w words bandwidth);
      let dir = Congest.Network.dir_of g e v in
      incr msgs;
      let l = Latency.draw lat in
      let depart =
        match caps with
        | None -> !now
        | Some c ->
            let tx = float_of_int words /. c.(e) in
            let d = Float.max !now last_depart.(dir) +. tx in
            last_depart.(dir) <- d;
            d
      in
      let idx =
        match !free with
        | i :: rest ->
            free := rest;
            i
        | [] ->
            let cap = Array.length !pay in
            if !len = cap then begin
              let np = Array.make (2 * cap) [||] in
              let nd = Array.make (2 * cap) 0 in
              Array.blit !pay 0 np 0 !len;
              Array.blit !dirs 0 nd 0 !len;
              pay := np;
              dirs := nd
            end;
            let i = !len in
            len := !len + 1;
            i
      in
      !pay.(idx) <- Array.copy payload;
      !dirs.(idx) <- dir;
      incr seq;
      EQ.push eq ~time:(depart +. l) ~a:dir ~b:!seq idx
    end
  in
  ctx.emit <- emit;
  for v = 0 to n - 1 do
    ctx.node <- v;
    ctx.now <- 0.0;
    states.(v) <- algo.start ctx states.(v)
  done;
  let quiesced = ref true in
  (let continue = ref true in
   while !continue do
     if !events >= max_events then begin
       quiesced := false;
       continue := false
     end
     else
       match EQ.pop eq with
       | None -> continue := false
       | Some (t, idx) ->
           now := t;
           incr events;
           let dir = !dirs.(idx) in
           let payload = !pay.(idx) in
           !pay.(idx) <- [||];
           free := idx :: !free;
           let e = dir / 2 in
           let u = Graph.edge_u g e and v = Graph.edge_v g e in
           let src = if dir land 1 = 0 then u else v in
           let dst = if dir land 1 = 0 then v else u in
           ctx.node <- dst;
           ctx.now <- t;
           states.(dst) <- algo.receive ctx ~src ~payload states.(dst)
   done);
  ( states,
    {
      sim_time = !now;
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
