(* α-synchronizer over a deterministic discrete-event scheduler.

   The executor runs unmodified step-API algorithms on an asynchronous
   fabric.  Pulse p of the synchronizer is round p of the synchronous
   engine: a node executes pulse p + 1 once (a) every data message it
   sent at pulse p has been acknowledged (it is "safe for p") and (b) it
   holds a safe(p) notification from every live neighbor.  Because a
   pulse p + 2 send requires safe(p + 1) from the receiver — which is
   emitted only after the receiver consumed its pulse p + 1 mail — at
   most two pulses of undelivered data can coexist per directed edge,
   which is exactly the guarantee Congest.Network's two parity-indexed
   arenas need (see Network.Hook).

   Determinism contract: the event queue is keyed by the lexicographic
   (delivery_time, directed_edge, seq) composite, every latency sample
   comes from the spec's named streams in event-processing order, and
   handlers never consult wall-clock state — so a run is a pure function
   of (graph, algorithm, spec, fault plan), replay-exact across domains
   and --jobs settings.

   Fault composition: drop/link faults fire at send time inside the hook
   (same streams, same order discipline as the synchronous gauntlet); a
   delay roll of k extra rounds stretches that message's latency by a
   factor of k + 1 — under a synchronizer, delays slow simulated time
   but can never reorder pulses, which is the point of running one.  A
   crashed node stops executing pulses at its crash round; messages
   reaching it afterwards are counted lost but still acknowledged at the
   transport level, and live neighbors stop expecting its safes — the
   simulator plays the perfect failure detector, so crashes cannot
   deadlock the control protocol. *)

module Graph = Graphlib.Graph
module Network = Congest.Network
module Hook = Congest.Network.Hook
module EQ = Graphlib.Pqueue.Event

type report = {
  pulses : int;
  sim_time : float;
  data_msgs : int;
  ctrl_msgs : int;
  events : int;
  queue_hwm : int;
  converged : bool;
  timeline : (float * int * int) array;
}

(* growable per-pulse counters: waves overlap (a fast cluster can run a
   pulse ahead of a distant straggler), so two parity slots are not
   enough for the global per-wave bookkeeping *)
type gints = { mutable a : int array }

let gmake () = { a = Array.make 64 0 }
let gget g i = if i < Array.length g.a then g.a.(i) else 0

let gadd g i d =
  if i >= Array.length g.a then begin
    let ncap = max (i + 1) (2 * Array.length g.a) in
    let na = Array.make ncap 0 in
    Array.blit g.a 0 na 0 (Array.length g.a);
    g.a <- na
  end;
  g.a.(i) <- g.a.(i) + d

(* the simulated clock: a flat float record, so advancing it never boxes *)
type clock = { mutable now : float }

(* An event is one heap entry keyed (time, directed edge, seq); its int
   payload is a code whose low two bits are the kind and whose other bits
   are a pulse.  Its edge is the heap key, so no event takes a slot: a
   data event's words already sit in the receiver's parity arena, written
   there at send time (see [Hook.create]), and its arrival only decides
   whether the message was lost and sends the ack. *)
let kind_data = 0
let kind_ack = 1
let kind_safe = 2

exception Stop

let run ?(bandwidth = 4) ?(max_rounds = 1_000_000) ?trace ?faults
    ?(timeline = false) ~spec g algo =
  let n = Graph.n g in
  let m = Graph.m g in
  let lat = Latency.sampler spec in
  let caps = Latency.edge_caps spec ~m in
  let eq = EQ.create () in
  let seq = ref 0 in
  let clk = { now = 0.0 } in
  let data_msgs = ref 0 and ctrl_msgs = ref 0 and events = ref 0 in
  let exec_pulse = Array.make n 0 in
  let pending_acks = Array.make n 0 in
  let self_safe = Array.make n false in
  let safe_cnt = Array.make (2 * n) 0 in
  let last_depart = Array.make (2 * m) 0.0 in
  let exec_cnt = gmake () and unfinished_cnt = gmake () and sent_cnt = gmake () in
  let next_check = ref 1 in
  let rounds = ref 0 in
  let converged = ref false in
  let capped = ref false in
  let tl_t = ref [] and tl_q = ref [] and tl_d = ref [] in
  let cur_pulse = ref 0 in
  let cur_sends = ref 0 in
  let[@inline] schedule ~dir ~time code =
    incr seq;
    EQ.push eq ~time ~a:dir ~b:!seq code
  in
  (* the hook has already written the words into the arena, stamped for
     the receiver's next pulse *)
  let on_send ~dir ~dst:_ ~delay_rounds ~words =
    incr data_msgs;
    incr cur_sends;
    let pulse = !cur_pulse + 1 in
    gadd sent_cnt pulse 1;
    let l = Latency.draw lat *. float_of_int (1 + delay_rounds) in
    let depart =
      match caps with
      | None -> clk.now
      | Some c ->
          let tx = float_of_int words /. c.(dir / 2) in
          let d = Float.max clk.now last_depart.(dir) +. tx in
          last_depart.(dir) <- d;
          d
    in
    schedule ~dir ~time:(depart +. l) ((pulse lsl 2) lor kind_data)
  in
  let h, states = Hook.create ~bandwidth ?trace ?faults ~on_send g algo in
  (* crash rounds are fixed when the run starts, so everything the wave
     and safe bookkeeping needs from them is derived here, once *)
  let crash_at = Array.init n (fun v -> Hook.crash_round h v) in
  let dead v pulse = crash_at.(v) >= 0 && pulse >= crash_at.(v) in
  let crash_rounds =
    Array.of_list
      (List.sort Int.compare
         (List.filter (fun c -> c >= 0) (Array.to_list crash_at)))
  in
  (* nodes alive at [pulse]: n less the crash rounds <= pulse, counted by
     binary search over the sorted rounds *)
  let alive_at pulse =
    let lo = ref 0 and hi = ref (Array.length crash_rounds) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if crash_rounds.(mid) <= pulse then lo := mid + 1 else hi := mid
    done;
    n - !lo
  in
  (* per node, the crash rounds of its crashed neighbors, one per
     adjacency entry; empty for every node when nothing crashes *)
  let crashed_nbrs =
    if Array.length crash_rounds = 0 then [||]
    else
      Array.init n (fun v ->
          let l = ref [] in
          for i = Graph.adj_offset g v to Graph.adj_offset g (v + 1) - 1 do
            let c = crash_at.(Graph.adj_dst g i) in
            if c >= 0 then l := c :: !l
          done;
          Array.of_list !l)
  in
  (* safes expected for advancing past pulse p: one per neighbor still
     alive at p (dead neighbors never emit safe(p); the simulator's
     perfect failure detector stops waiting for them) *)
  let required_safes v p =
    let req = ref (Graph.degree g v) in
    if Array.length crashed_nbrs > 0 then begin
      let cs = crashed_nbrs.(v) in
      for i = 0 to Array.length cs - 1 do
        if p >= cs.(i) then decr req
      done
    end;
    !req
  in
  (* the handlers run at the clock's current time, [clk.now] *)
  let rec exec v p =
    if p > max_rounds then begin
      capped := true;
      rounds := max_rounds;
      raise Stop
    end;
    exec_pulse.(v) <- p;
    self_safe.(v) <- false;
    safe_cnt.((2 * v) + ((p + 1) land 1)) <- 0;
    gadd exec_cnt p 1;
    cur_pulse := p;
    cur_sends := 0;
    Hook.step h ~node:v ~pulse:p;
    if Hook.awake h v then gadd unfinished_cnt p 1;
    pending_acks.(v) <- !cur_sends;
    if !cur_sends = 0 then become_safe v p;
    check_waves ()
  and become_safe v p =
    self_safe.(v) <- true;
    for i = Graph.adj_offset g v to Graph.adj_offset g (v + 1) - 1 do
      incr ctrl_msgs;
      let l = Latency.draw lat in
      schedule
        ~dir:(Network.dir_of g (Graph.adj_eid g i) v)
        ~time:(clk.now +. l)
        ((p lsl 2) lor kind_safe)
    done;
    try_advance v
  and try_advance v =
    let p = exec_pulse.(v) in
    (* a node with no live neighbors has no synchronization constraint and
       would free-run to max_rounds here; such nodes advance only on wave
       completion (check_waves), pinned to the global frontier *)
    let req = required_safes v p in
    if
      req > 0 && self_safe.(v)
      && safe_cnt.((2 * v) + (p land 1)) >= req
      && not (dead v (p + 1))
    then exec v (p + 1)
  and check_waves () =
    let r = !next_check in
    if r <= !rounds + 1 && gget exec_cnt r >= alive_at r && alive_at r > 0 then begin
      (* wave r is complete: every live node has executed pulse r *)
      Hook.wave_end h;
      if timeline then begin
        tl_t := clk.now :: !tl_t;
        tl_q := EQ.size eq :: !tl_q;
        tl_d := !data_msgs :: !tl_d
      end;
      if gget unfinished_cnt r = 0 && gget sent_cnt (r + 1) = 0 then begin
        converged := true;
        rounds := r;
        raise Stop
      end
      else begin
        next_check := r + 1;
        rounds := r;
        (* advance the zero-constraint nodes (isolated, or every neighbor
           crashed) that try_advance deliberately skipped *)
        for v = 0 to n - 1 do
          if
            exec_pulse.(v) = r && self_safe.(v)
            && required_safes v r = 0
            && not (dead v (r + 1))
          then exec v (r + 1)
        done;
        check_waves ()
      end
    end
  in
  (* rounds tracks the last completed wave; r <= rounds + 1 in
     check_waves just guards the recursion *)
  rounds := 0;
  let initially_awake = ref false in
  for v = 0 to n - 1 do
    if Hook.awake h v then initially_awake := true
  done;
  (if !initially_awake then begin
     try
       (* pulse 1 is spontaneous: every live node fires at time zero, in
          node order, exactly as the synchronous round 1 steps them *)
       for v = 0 to n - 1 do
         if not (dead v 1) then exec v 1
       done;
       while not (EQ.is_empty eq) do
         clk.now <- EQ.min_time eq;
         let dir = EQ.min_a eq in
         let code = EQ.pop eq in
         incr events;
         let arg = code lsr 2 in
         match code land 3 with
         | 0 ->
             (* kind_data: a data arrival for pulse [arg], whose words
                are already in the arena; ack back to the sender either
                way — the transport acks even when the host is dead *)
             if dead (Hook.dir_dst h dir) arg then Hook.note_lost h;
             incr ctrl_msgs;
             let l = Latency.draw lat in
             schedule ~dir ~time:(clk.now +. l) ((arg lsl 2) lor kind_ack)
         | 1 ->
             (* kind_ack: at the sender of [dir]'s data message *)
             let u = Hook.dir_src h dir in
             pending_acks.(u) <- pending_acks.(u) - 1;
             if pending_acks.(u) = 0 && not self_safe.(u) then
               become_safe u exec_pulse.(u)
         | _ ->
             (* kind_safe: safe(arg) at the receiver of [dir] *)
             let w = Hook.dir_dst h dir in
             safe_cnt.((2 * w) + (arg land 1)) <-
               safe_cnt.((2 * w) + (arg land 1)) + 1;
             if exec_pulse.(w) = arg then try_advance w
       done
     with Stop -> ()
   end
   else converged := true);
  let sim_time = if !converged && !rounds = 0 then 0.0 else clk.now in
  let stats = Hook.finish h ~rounds:!rounds ~converged:(!converged && not !capped) in
  let tl =
    if not timeline then [||]
    else begin
      let ts = Array.of_list (List.rev !tl_t) in
      let qs = Array.of_list (List.rev !tl_q) in
      let ds = Array.of_list (List.rev !tl_d) in
      Array.init (Array.length ts) (fun i -> (ts.(i), qs.(i), ds.(i)))
    end
  in
  ( states (),
    stats,
    {
      pulses = !rounds;
      sim_time;
      data_msgs = !data_msgs;
      ctrl_msgs = !ctrl_msgs;
      events = !events;
      queue_hwm = EQ.high_water eq;
      converged = !converged && not !capped;
      timeline = tl;
    } )

(* ---------- substrate installation ---------- *)

type summary = {
  runs : int;
  pulses : int;
  sim_time : float;
  data_msgs : int;
  ctrl_msgs : int;
  events : int;
  queue_hwm : int;
  all_converged : bool;
  timeline : (float * int * int) array;
}

let with_substrate ?(timeline = false) ~spec f =
  let runs = ref 0 in
  let pulses = ref 0 in
  let time = ref 0.0 in
  let data = ref 0 and ctrl = ref 0 and evs = ref 0 and hwm = ref 0 in
  let okay = ref true in
  let tls = ref [] in
  let runner =
    {
      Network.run_algo =
        (fun ~bandwidth ~max_rounds ~trace ~faults g algo ->
          let states, stats, rep =
            run ~bandwidth ~max_rounds ?trace ?faults ~timeline ~spec g algo
          in
          incr runs;
          pulses := !pulses + rep.pulses;
          (* nested runs compose sequentially: offset each run's samples
             by the simulated time already spent *)
          if timeline then
            tls :=
              Array.map (fun (t, q, d) -> (t +. !time, q, d)) rep.timeline
              :: !tls;
          time := !time +. rep.sim_time;
          data := !data + rep.data_msgs;
          ctrl := !ctrl + rep.ctrl_msgs;
          evs := !evs + rep.events;
          if rep.queue_hwm > !hwm then hwm := rep.queue_hwm;
          if not rep.converged then okay := false;
          (states, stats));
    }
  in
  let result = Network.with_runner runner f in
  let summary =
    {
      runs = !runs;
      pulses = !pulses;
      sim_time = !time;
      data_msgs = !data;
      ctrl_msgs = !ctrl;
      events = !evs;
      queue_hwm = !hwm;
      all_converged = !okay;
      timeline = Array.concat (List.rev !tls);
    }
  in
  Obs.Metrics.incr (Obs.Metrics.counter "asynch.runs");
  Obs.Metrics.add (Obs.Metrics.counter "asynch.events") summary.events;
  Obs.Metrics.add (Obs.Metrics.counter "asynch.data_msgs") summary.data_msgs;
  Obs.Metrics.add (Obs.Metrics.counter "asynch.ctrl_msgs") summary.ctrl_msgs;
  Obs.Metrics.add (Obs.Metrics.counter "asynch.pulses") summary.pulses;
  Obs.Metrics.set
    (Obs.Metrics.gauge "asynch.queue_depth")
    (float_of_int summary.queue_hwm);
  (result, summary)

let summary_fields ~label ~spec s =
  Latency.fields spec
  @ [
      ("label", Obs.Sink.String label);
      ("runs", Obs.Sink.Int s.runs);
      ("rounds", Obs.Sink.Int s.pulses);
      ("sim_time", Obs.Sink.Float s.sim_time);
      ("data_msgs", Obs.Sink.Int s.data_msgs);
      ("ctrl_msgs", Obs.Sink.Int s.ctrl_msgs);
      ("events", Obs.Sink.Int s.events);
      ("queue_hwm", Obs.Sink.Int s.queue_hwm);
      ("converged", Obs.Sink.Bool s.all_converged);
    ]

let observe ~label ~spec s =
  Obs.Metrics.observe
    (Obs.Metrics.histogram ("asynch.sim_time." ^ label))
    s.sim_time;
  if Obs.Sink.enabled () then begin
    let fields = summary_fields ~label ~spec s in
    let fields =
      if Array.length s.timeline = 0 then fields
      else
        fields
        @ [
            ( "times",
              Obs.Sink.List
                (Array.to_list
                   (Array.map (fun (t, _, _) -> Obs.Sink.Float t) s.timeline))
            );
            ( "series",
              Obs.Sink.Obj
                [
                  ( "queue_depth",
                    Obs.Sink.List
                      (Array.to_list
                         (Array.map
                            (fun (_, q, _) -> Obs.Sink.Int q)
                            s.timeline)) );
                  ( "data_msgs",
                    Obs.Sink.List
                      (Array.to_list
                         (Array.map
                            (fun (_, _, d) -> Obs.Sink.Int d)
                            s.timeline)) );
                ] );
          ]
    in
    Obs.Sink.emit ~type_:"asynch_summary" fields
  end
