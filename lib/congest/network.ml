module Graph = Graphlib.Graph

type stats = {
  rounds : int;
  messages : int;
  words : int;
  active_steps : int;
  converged : bool;
  dropped : int;
  delayed : int;
  retried : int;
}

let empty_stats =
  {
    rounds = 0;
    messages = 0;
    words = 0;
    active_steps = 0;
    converged = true;
    dropped = 0;
    delayed = 0;
    retried = 0;
  }

let add_stats a b =
  {
    rounds = a.rounds + b.rounds;
    messages = a.messages + b.messages;
    words = a.words + b.words;
    active_steps = a.active_steps + b.active_steps;
    converged = a.converged && b.converged;
    dropped = a.dropped + b.dropped;
    delayed = a.delayed + b.delayed;
    retried = a.retried + b.retried;
  }

(* The message fabric (v3): every undirected edge e owns two directed
   slots, 2e for Graph.edge endpoint order and 2e+1 reversed ([dir_of] is
   the one place that numbering is computed).  The fabric keeps no copy
   of the topology: sends walk the sender's CSR segment, and the inbox
   fill walks the receiver's neighbour-sorted order.  Payloads live in a
   flat arena — slot [dir] owns words [dir*bandwidth .. dir*bandwidth +
   len - 1] — instead of per-message boxed [int array option]s, and
   occupancy is a round stamp: [msg_round.(p).(dir) = r] means arena [p]
   holds a message for round [r] on [dir].  Two parity-indexed arenas
   alternate (sends during round r land in arena [(r+1) land 1],
   deliveries read arena [r land 1]), so a send never clobbers an
   undelivered message, stale stamps never match, and nothing is ever
   cleared: steady-state rounds allocate no words at all.  Per-edge load
   is counted only by an attached trace; [stats] keeps run totals.

   A deferred send (DESIGN.md sections 11 and 16) is the one detour,
   taken under a live fault plan or a delivery hook: the arena write waits
   for the delivery round, so capacity is enforced by a per-direction
   [sent] stamp instead of the arena's round stamp.  The message then runs
   the fault gauntlet — link down, Bernoulli drop, delay roll, in send
   order — and a survivor is offered to [accept] with its extra delay.
   [accept] queues it and may refuse it: the synchronous engine queues it
   on its due-round bucket and refuses a receiver that is dead by then, a
   hook hands it to the external executor.  With neither a plan nor a
   hook ([defer = None]) the send path is the v3 fast path,
   allocation-free and branch-for-branch identical. *)
type deferred = {
  fs : Faults.state option;  (* None: a hook without a live plan *)
  sent : int array;  (* per dir: last round a send was made on it *)
  accept : ctx -> dir:int -> dst:int -> extra:int -> int array -> bool;
}

and ctx = {
  g : Graph.t;
  bandwidth : int;
  arena : int array array;  (* 2 parity buffers of 2m * bandwidth words *)
  msg_len : int array array;  (* 2 x 2m: payload length per slot *)
  msg_round : int array array;  (* 2 x 2m: round the slot is valid for *)
  (* the stepped node's inbox view, filled before its step runs:
     positions 0 .. ibx_n - 1, in descending sender order *)
  ibx_sender : int array;
  ibx_dir : int array;
  mutable ibx_n : int;
  has_mail : bool array;
  mutable next_recv : int array;  (* nodes with mail for the coming round *)
  mutable next_recv_n : int;
  mutable node : int;
  mutable round : int;
  mutable messages : int;
  mutable words : int;
  mutable dropped : int;
  mutable delayed : int;
  mutable retried : int;
  trace : Trace.t option;
  defer : deferred option;
}

(* the directed slot of edge [e] leaving endpoint [u] *)
let[@inline] dir_of g e u = if Graph.edge_u g e = u then 2 * e else (2 * e) + 1

let node ctx = ctx.node
let round ctx = ctx.round
let graph ctx = ctx.g
let degree ctx = Graph.degree ctx.g ctx.node
let inbox_size ctx = ctx.ibx_n
let inbox_sender ctx i = ctx.ibx_sender.(i)
let inbox_words ctx i = ctx.msg_len.(ctx.round land 1).(ctx.ibx_dir.(i))

let inbox_word ctx i j =
  let dir = ctx.ibx_dir.(i) in
  let p = ctx.round land 1 in
  if j < 0 || j >= ctx.msg_len.(p).(dir) then
    invalid_arg "Congest: inbox_word out of range";
  ctx.arena.(p).((dir * ctx.bandwidth) + j)

(* diagnostics carry enough context to debug a fault-layer (or algorithm)
   bug from the exception alone; the sprintf only runs on the raise *)
let err_duplicate ctx w words =
  invalid_arg
    (Printf.sprintf
       "Congest: two messages on one edge in one round (round %d, %d -> %d, \
        %d words)"
       ctx.round ctx.node w words)

let err_bandwidth ctx w words =
  invalid_arg
    (Printf.sprintf
       "Congest: message exceeds bandwidth (round %d, %d -> %d, %d words > \
        %d)"
       ctx.round ctx.node w words ctx.bandwidth)

(* stamp [payload] into slot [dir] of the arena read at [round].  The
   copy is an int loop, not [Array.blit]: the arena lives in the major
   heap, where the C blit goes through the write barrier for every word,
   while an int store needs none *)
let[@inline] write_slot ctx ~round dir payload =
  let p = round land 1 in
  let words = Array.length payload in
  ctx.msg_round.(p).(dir) <- round;
  ctx.msg_len.(p).(dir) <- words;
  let arena = ctx.arena.(p) and base = dir * ctx.bandwidth in
  for j = 0 to words - 1 do
    arena.(base + j) <- payload.(j)
  done

(* register [w] on the coming round's receiver list, once *)
let[@inline] add_recv ctx w =
  if not ctx.has_mail.(w) then begin
    ctx.has_mail.(w) <- true;
    ctx.next_recv.(ctx.next_recv_n) <- w;
    ctx.next_recv_n <- ctx.next_recv_n + 1
  end

(* accepted-message accounting shared by both send paths *)
let account ctx dir words =
  ctx.messages <- ctx.messages + 1;
  ctx.words <- ctx.words + words;
  match ctx.trace with
  | Some t -> Trace.on_send t ~dir_edge:dir ~words
  | None -> ()

let note_drop ctx =
  ctx.dropped <- ctx.dropped + 1;
  match ctx.trace with Some t -> Trace.on_drop t | None -> ()

let note_retry ctx =
  ctx.retried <- ctx.retried + 1;
  match ctx.trace with Some t -> Trace.on_retry t | None -> ()

(* the deferred send: a message is counted once, at send time, exactly
   where the fast path counts it — accepted (and delayed, if it was) or
   dropped, lost on the link and refused alike *)
let deliver_deferred ctx d w dir payload =
  let r = ctx.round in
  let words = Array.length payload in
  if d.sent.(dir) = r then err_duplicate ctx w words;
  if words > ctx.bandwidth then err_bandwidth ctx w words;
  d.sent.(dir) <- r;
  (* extra delivery rounds, or -1 for a message lost on the link *)
  let extra =
    match d.fs with
    | None -> 0
    | Some fs ->
        if Faults.link_down fs ~edge:(dir / 2) ~round:r || Faults.drop_roll fs
        then -1
        else Faults.delay_roll fs
  in
  if extra >= 0 && d.accept ctx ~dir ~dst:w ~extra payload then begin
    account ctx dir words;
    if extra > 0 then begin
      ctx.delayed <- ctx.delayed + 1;
      match ctx.trace with Some t -> Trace.on_delay t | None -> ()
    end
  end
  else note_drop ctx

let deliver ctx w dir payload =
  match ctx.defer with
  | Some d -> deliver_deferred ctx d w dir payload
  | None ->
      let next = ctx.round + 1 in
      let words = Array.length payload in
      if ctx.msg_round.(next land 1).(dir) = next then err_duplicate ctx w words;
      if words > ctx.bandwidth then err_bandwidth ctx w words;
      write_slot ctx ~round:next dir payload;
      account ctx dir words;
      add_recv ctx w

let send ctx w payload =
  let e = Graph.find_edge_id ctx.g ctx.node w in
  if e < 0 then
    invalid_arg
      (Printf.sprintf "Congest: send to a non-neighbor (round %d, %d -> %d)"
         ctx.round ctx.node w);
  deliver ctx w (dir_of ctx.g e ctx.node) payload

(* CSR order: the send order every recorded experiment depends on *)
let send_all ctx payload =
  let g = ctx.g and v = ctx.node in
  for p = Graph.adj_offset g v to Graph.adj_offset g (v + 1) - 1 do
    deliver ctx (Graph.adj_dst g p) (dir_of g (Graph.adj_eid g p) v) payload
  done

type 'st algo = {
  init : Graph.t -> int -> 'st;
  step : ctx -> 'st -> 'st;
  finished : 'st -> bool;
}

(* context construction shared by the synchronous engine and hook mode:
   the per-run message state only, the topology stays in the CSR *)
let make_ctx ~bandwidth ~trace ~defer g =
  let n = Graph.n g in
  let m = Graph.m g in
  let maxdeg = ref 0 in
  for v = 0 to n - 1 do
    let d = Graph.degree g v in
    if d > !maxdeg then maxdeg := d
  done;
  {
    g;
    bandwidth;
    arena = [| Array.make (2 * m * bandwidth) 0; Array.make (2 * m * bandwidth) 0 |];
    msg_len = [| Array.make (2 * m) 0; Array.make (2 * m) 0 |];
    msg_round = [| Array.make (2 * m) 0; Array.make (2 * m) 0 |];
    ibx_sender = Array.make !maxdeg 0;
    ibx_dir = Array.make !maxdeg 0;
    ibx_n = 0;
    has_mail = Array.make n false;
    next_recv = Array.make n 0;
    next_recv_n = 0;
    node = -1;
    round = 0;
    messages = 0;
    words = 0;
    dropped = 0;
    delayed = 0;
    retried = 0;
    trace;
    defer;
  }

(* the stepped node's inbox view: walk v's neighbour-sorted order
   end-to-start for sender slots stamped with the current round, so the
   indexed inbox comes out in descending sender order (the delivery order
   every recorded experiment depends on).  Shared verbatim by the
   synchronous engine and hook-mode pulses. *)
let fill_inbox ctx v =
  let g = ctx.g in
  let mr = ctx.msg_round.(ctx.round land 1) in
  let k = ref 0 in
  for i = Graph.adj_offset g (v + 1) - 1 downto Graph.adj_offset g v do
    let p = Graph.adj_sorted g i in
    (* the reverse of v's slot on the edge: the sender's *)
    let dir = dir_of g (Graph.adj_eid g p) v lxor 1 in
    if mr.(dir) = ctx.round then begin
      ctx.ibx_sender.(!k) <- Graph.adj_dst g p;
      ctx.ibx_dir.(!k) <- dir;
      incr k
    end
  done;
  ctx.ibx_n <- !k

(* the end of a run, shared by both engines.  With a live fault plan it
   bumps the faults.* counters and emits one fault_summary event;
   [undelivered] is what was still in flight, 0 under the hook, whose
   arrival losses count as drops. *)
let finish_run ctx ~faults ~rounds ~active_steps ~converged =
  (match faults with
  | Some (plan, fs, undelivered) ->
      Obs.Metrics.add (Obs.Metrics.counter "faults.dropped") ctx.dropped;
      Obs.Metrics.add (Obs.Metrics.counter "faults.delayed") ctx.delayed;
      Obs.Metrics.add (Obs.Metrics.counter "faults.retried") ctx.retried;
      Obs.Metrics.add (Obs.Metrics.counter "faults.undelivered") undelivered;
      let crashed_n = ref 0 in
      for v = 0 to Graph.n ctx.g - 1 do
        let cr = Faults.crash_round fs v in
        if cr >= 0 && cr <= rounds then incr crashed_n
      done;
      Obs.Metrics.add (Obs.Metrics.counter "faults.crashed") !crashed_n;
      Obs.Metrics.incr (Obs.Metrics.counter "faults.runs");
      if Obs.Sink.enabled () then
        Obs.Sink.emit ~type_:"fault_summary"
          (Faults.plan_fields plan
          @ [
              ("rounds", Obs.Sink.Int rounds);
              ("messages", Obs.Sink.Int ctx.messages);
              ("dropped", Obs.Sink.Int ctx.dropped);
              ("delayed", Obs.Sink.Int ctx.delayed);
              ("retried", Obs.Sink.Int ctx.retried);
              ("undelivered", Obs.Sink.Int undelivered);
              ("crashed", Obs.Sink.Int !crashed_n);
              ("converged", Obs.Sink.Bool converged);
            ])
  | None -> ());
  {
    rounds;
    messages = ctx.messages;
    words = ctx.words;
    active_steps;
    converged;
    dropped = ctx.dropped;
    delayed = ctx.delayed;
    retried = ctx.retried;
  }

(* compile a plan once, for either engine: a plan that can never fire
   stays on the fast path entirely *)
let start_faults faults g =
  match faults with
  | Some plan when not (Faults.is_zero plan) -> Some (Faults.start plan g)
  | _ -> None

let run_sync ~bandwidth ~max_rounds ~trace ~faults g algo =
  let n = Graph.n g in
  let m = Graph.m g in
  let fs = start_faults faults g in
  let round = ref 0 in
  let in_flight = ref 0 in
  (* a live plan defers every send: [accept] queues it on its due round's
     bucket (entries in reverse send order) and [release] materializes a
     round's bucket into the arena.  [last_due] makes per-direction
     delivery rounds strictly increasing, so a delayed message can never
     share a slot (or a round) with a later one — the CONGEST
     one-message-per-edge-direction-per-round invariant survives arbitrary
     delay schedules. *)
  let defer, release =
    match fs with
    | None -> (None, fun _ -> ())
    | Some f ->
        let last_due = Array.make (2 * m) 0 in
        let buckets = Hashtbl.create 64 in
        let accept _ ~dir ~dst ~extra payload =
          let due = max (!round + 1 + extra) (last_due.(dir) + 1) in
          let cw = Faults.crash_round f dst in
          (* refused: the receiver is dead by the time this would arrive *)
          (cw < 0 || due < cw)
          && begin
               last_due.(dir) <- due;
               let entry = (dir, dst, Array.copy payload) in
               (match Hashtbl.find_opt buckets due with
               | Some l -> l := entry :: !l
               | None -> Hashtbl.add buckets due (ref [ entry ]));
               incr in_flight;
               true
             end
        in
        (* bucket order is send order — the order the fast path registers
           receivers in, so a zero-effect plan reproduces its worklists *)
        let release ctx =
          match Hashtbl.find_opt buckets ctx.round with
          | None -> ()
          | Some l ->
              Hashtbl.remove buckets ctx.round;
              List.iter
                (fun (dir, w, payload) ->
                  decr in_flight;
                  write_slot ctx ~round:ctx.round dir payload;
                  add_recv ctx w)
                (List.rev !l)
        in
        (Some { fs; sent = Array.make (2 * m) (-1); accept }, release)
  in
  let states = Array.init n (fun v -> algo.init g v) in
  let ctx = make_ctx ~bandwidth ~trace ~defer g in
  let spare_recv = ref (Array.make n 0) in
  (* awake worklists: double-buffered int stacks, no per-round consing.
     Both stacks (and the receiver stack) are pushed in discovery order and
     iterated end-to-start — the v2 engine consed lists and iterated them
     LIFO, and the trace's busiest-edge tie-break is sensitive to within-
     round step order, so recorded outputs depend on reproducing it *)
  let awake = ref (Array.make n 0) in
  let next_awake = ref (Array.make n 0) in
  let awake_n = ref 0 in
  for v = n - 1 downto 0 do
    if not (algo.finished states.(v)) then begin
      !awake.(!awake_n) <- v;
      incr awake_n
    end
  done;
  let converged = ref (!awake_n = 0) in
  let active_steps = ref 0 in
  let stamp = Array.make n 0 in
  while (not !converged) && !round < max_rounds do
    incr round;
    ctx.round <- !round;
    (* deliveries due this round register their receivers before the swap
       below moves the registrations into this round's step list *)
    release ctx;
    (* last round's send targets become this round's receivers; the spare
       stack becomes the write stack *)
    let this_recv = ctx.next_recv in
    let this_n = ctx.next_recv_n in
    ctx.next_recv <- !spare_recv;
    ctx.next_recv_n <- 0;
    spare_recv := this_recv;
    (* clear the membership flags before stepping anyone: sends during this
       round must re-add their targets to the next round's receiver list *)
    for i = 0 to this_n - 1 do
      ctx.has_mail.(this_recv.(i)) <- false
    done;
    let next_n = ref 0 in
    let na = !next_awake in
    let step_node v with_mail =
      ctx.node <- v;
      if with_mail then fill_inbox ctx v else ctx.ibx_n <- 0;
      incr active_steps;
      let st = algo.step ctx states.(v) in
      states.(v) <- st;
      if not (algo.finished st) then begin
        na.(!next_n) <- v;
        incr next_n
      end
    in
    (* a crashed node is fail-stop: from its crash round on it neither
       steps nor re-enters the worklists, so it drains out of the run *)
    let dead v =
      match fs with
      | Some f -> Faults.crashed f ~node:v ~round:!round
      | None -> false
    in
    for i = this_n - 1 downto 0 do
      let v = this_recv.(i) in
      if stamp.(v) <> !round then begin
        stamp.(v) <- !round;
        if not (dead v) then step_node v true
      end
    done;
    let aw = !awake in
    for i = !awake_n - 1 downto 0 do
      let v = aw.(i) in
      if stamp.(v) <> !round then begin
        stamp.(v) <- !round;
        if not (dead v) then step_node v false
      end
    done;
    let tmp = !awake in
    awake := !next_awake;
    next_awake := tmp;
    awake_n := !next_n;
    (match trace with Some t -> Trace.on_round_end t | None -> ());
    if !awake_n = 0 && ctx.next_recv_n = 0 && !in_flight = 0 then
      converged := true
  done;
  ( states,
    finish_run ctx
      ~faults:
        (match (faults, fs) with
        | Some plan, Some f -> Some (plan, f, !in_flight)
        | _ -> None)
      ~rounds:!round ~active_steps:!active_steps ~converged:!converged )

(* ---------- substrate override ----------

   [run] consults a per-domain runner before falling back to the
   synchronous engine.  An alternative substrate (the α-synchronizer in
   lib/asynch) installs itself with [with_runner] around a thunk, and
   every [run] call inside — including the ones buried in Bfs/Mst/...
   entry points — executes on it, with the algorithm code untouched.
   The slot is domain-local so parallel bench cells cannot observe each
   other's substrate. *)

type runner = {
  run_algo :
    'st.
    bandwidth:int ->
    max_rounds:int ->
    trace:Trace.t option ->
    faults:Faults.plan option ->
    Graph.t ->
    'st algo ->
    'st array * stats;
}

let runner_key : runner option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_runner r f =
  let prev = Domain.DLS.get runner_key in
  Domain.DLS.set runner_key (Some r);
  Fun.protect ~finally:(fun () -> Domain.DLS.set runner_key prev) f

let run ?(bandwidth = 4) ?(max_rounds = 1_000_000) ?trace ?faults g algo =
  match Domain.DLS.get runner_key with
  | Some r -> r.run_algo ~bandwidth ~max_rounds ~trace ~faults g algo
  | None -> run_sync ~bandwidth ~max_rounds ~trace ~faults g algo

(* ---------- delivery hooks ----------

   An externally-driven engine instance: the executor owns time and
   delivery order, the hook owns everything the synchronous engine knows
   about the fabric — ctx construction, the deferred send (validation,
   fault gauntlet, accounting), the parity arenas, the inbox view, and
   the algorithm states.  Its [accept] writes every surviving message
   into the arena at once, stamped for the sender's pulse + 1, tells
   [on_send] its word count and never refuses: only the executor knows
   when a message lands, so it enforces receiver crashes at arrival
   ([note_lost]).  The α-synchronizer's invariant makes the early write
   safe: a node sends pulse p + 2 mail on a slot only after the
   receiver's safe(p + 1), which follows the receiver's consumption of
   the slot's pulse p + 1 message, and a receiver consumes pulse p + 1
   only after all its pulse p + 1 mail has arrived.  A dead receiver
   never reads its slot. *)
module Hook = struct
  type t = {
    hctx : ctx;
    plan : Faults.plan option;
    fs : Faults.state option;
    step_fn : int -> unit;
    awake_fn : int -> bool;
    mutable steps : int;
  }

  let create ?(bandwidth = 4) ?trace ?faults ~on_send g algo =
    let fs = start_faults faults g in
    (* the words land in the arena now, stamped for the receiver's next
       pulse; the header's invariant keeps the slot free until then *)
    let accept ctx ~dir ~dst ~extra payload =
      write_slot ctx ~round:(ctx.round + 1) dir payload;
      on_send ~dir ~dst ~delay_rounds:extra ~words:(Array.length payload);
      true
    in
    let defer = { fs; sent = Array.make (2 * Graph.m g) (-1); accept } in
    let hctx = make_ctx ~bandwidth ~trace ~defer:(Some defer) g in
    let states = Array.init (Graph.n g) (fun v -> algo.init g v) in
    let finished = Array.map algo.finished states in
    let step_fn v =
      let st = algo.step hctx states.(v) in
      states.(v) <- st;
      finished.(v) <- algo.finished st
    in
    let t =
      {
        hctx;
        plan = faults;
        fs;
        step_fn;
        awake_fn = (fun v -> not finished.(v));
        steps = 0;
      }
    in
    (t, fun () -> states)

  let n t = Graph.n t.hctx.g
  let graph t = t.hctx.g
  let awake t v = t.awake_fn v

  let dir_dst t dir =
    let e = dir / 2 in
    let u = Graph.edge_u t.hctx.g e and v = Graph.edge_v t.hctx.g e in
    if dir land 1 = 0 then v else u

  let dir_src t dir = dir_dst t (dir lxor 1)

  let crash_round t v =
    match t.fs with Some fs -> Faults.crash_round fs v | None -> -1

  (* one inbox scan per pulse: the same predicate the synchronous
     worklist applies, mail or awake *)
  let step t ~node ~pulse =
    let ctx = t.hctx in
    ctx.round <- pulse;
    ctx.node <- node;
    fill_inbox ctx node;
    if ctx.ibx_n > 0 || t.awake_fn node then begin
      t.steps <- t.steps + 1;
      t.step_fn node
    end

  let note_lost t = note_drop t.hctx
  let wave_end t = match t.hctx.trace with Some tr -> Trace.on_round_end tr | None -> ()

  let finish t ~rounds ~converged =
    finish_run t.hctx
      ~faults:
        (match (t.plan, t.fs) with
        | Some plan, Some fs -> Some (plan, fs, 0)
        | _ -> None)
      ~rounds ~active_steps:t.steps ~converged
end
