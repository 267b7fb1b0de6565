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

   The fault layer (DESIGN.md section 11) is a strictly additive detour:
   with a fault plan installed, accepted messages are not written into the
   arena at send time but queued on a per-due-round bucket and materialized
   into the arena at the start of their delivery round.  [last_due] makes
   per-directed-edge delivery rounds strictly increasing, so a delayed
   message can never share a slot (or a round) with a later one — the
   CONGEST one-message-per-edge-direction-per-round invariant survives
   arbitrary delay schedules.  With no plan installed ([faults = None])
   every fault field is dead and the send path is the v3 fast path,
   allocation-free and branch-for-branch identical. *)
type fstate = {
  fs : Faults.state;
  sent_round : int array;  (* per dir: last round a send was accepted *)
  last_due : int array;  (* per dir: latest delivery round claimed *)
  buckets : (int, (int * int * int array) list ref) Hashtbl.t;
      (* due round -> (dir, receiver, payload copy), reverse push order *)
  mutable in_flight : int;
}

(* Hook mode (DESIGN.md section 16): an external executor owns delivery.
   Sends still run validation, fault gauntlet and accounting here, but
   instead of landing in the arena they are handed to [h_send] — the
   async scheduler samples a latency, queues the message, and later blits
   it back via [Hook.deliver] with the pulse it belongs to.  [h_sent]
   replaces the arena round stamp for duplicate detection (the arena
   write is deferred, as in the fault path); [h_fs] is the hook's own
   fault state — drop/link/delay fire at send time exactly like the sync
   gauntlet, while receiver crashes are the executor's to enforce at
   arrival, because only it knows the delivery time. *)
type hook_state = {
  h_send : dir:int -> dst:int -> delay_rounds:int -> payload:int array -> unit;
  h_sent : int array;  (* per dir: last pulse a send was accepted *)
  h_fs : Faults.state option;
}

(* the directed slot of edge [e] leaving endpoint [u] *)
let[@inline] dir_of g e u = if Graph.edge_u g e = u then 2 * e else (2 * e) + 1

type ctx = {
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
  faults : fstate option;
  hook : hook_state option;
}

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

(* accepted-message accounting shared by every send path; the clean path
   also writes the arena at send time, the fault and hook paths defer that
   to the delivery round *)
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

(* fault-path send: capacity is enforced by a per-dir send stamp (the arena
   write is deferred, so its round stamp cannot serve), then the message
   runs the gauntlet — link down, Bernoulli drop, delay roll, receiver
   already crashed at the delivery round — and survivors are queued on
   their due-round bucket.  Accounting happens at send time, exactly where
   the clean path does it, so a zero-effect plan leaves every counter,
   trace series and worklist byte-identical to a run with no plan. *)
let deliver_faulty ctx f w dir payload =
  let r = ctx.round in
  let words = Array.length payload in
  if f.sent_round.(dir) = r then err_duplicate ctx w words;
  if words > ctx.bandwidth then err_bandwidth ctx w words;
  f.sent_round.(dir) <- r;
  let fs = f.fs in
  if Faults.link_down fs ~edge:(dir / 2) ~round:r then note_drop ctx
  else if Faults.drop_roll fs then note_drop ctx
  else begin
    let extra = Faults.delay_roll fs in
    let due = max (r + 1 + extra) (f.last_due.(dir) + 1) in
    let cw = Faults.crash_round fs w in
    if cw >= 0 && due >= cw then
      (* the receiver is dead by the time this message would arrive *)
      note_drop ctx
    else begin
      account ctx dir words;
      if extra > 0 then begin
        ctx.delayed <- ctx.delayed + 1;
        match ctx.trace with Some t -> Trace.on_delay t | None -> ()
      end;
      f.last_due.(dir) <- due;
      let entry = (dir, w, Array.sub payload 0 words) in
      (match Hashtbl.find_opt f.buckets due with
      | Some l -> l := entry :: !l
      | None -> Hashtbl.add f.buckets due (ref [ entry ]));
      f.in_flight <- f.in_flight + 1
    end
  end

(* hook-mode send: validate and account exactly like the other paths,
   then hand the surviving message to the external executor.  A crashed
   receiver is *not* checked here — the sync gauntlet can, because it
   knows the delivery round at send time; under the hook only the
   executor knows when the message lands, so it performs the crash check
   at arrival (and records the loss via [Hook.note_lost]). *)
let deliver_hooked ctx hs w dir payload =
  let r = ctx.round in
  let words = Array.length payload in
  if hs.h_sent.(dir) = r then err_duplicate ctx w words;
  if words > ctx.bandwidth then err_bandwidth ctx w words;
  hs.h_sent.(dir) <- r;
  match hs.h_fs with
  | None ->
      account ctx dir words;
      hs.h_send ~dir ~dst:w ~delay_rounds:0 ~payload
  | Some fs ->
      if Faults.link_down fs ~edge:(dir / 2) ~round:r then note_drop ctx
      else if Faults.drop_roll fs then note_drop ctx
      else begin
        let extra = Faults.delay_roll fs in
        account ctx dir words;
        if extra > 0 then begin
          ctx.delayed <- ctx.delayed + 1;
          match ctx.trace with Some t -> Trace.on_delay t | None -> ()
        end;
        hs.h_send ~dir ~dst:w ~delay_rounds:extra ~payload
      end

let deliver ctx w dir payload =
  match ctx.hook with
  | Some hs -> deliver_hooked ctx hs w dir payload
  | None ->
  match ctx.faults with
  | Some f -> deliver_faulty ctx f w dir payload
  | None ->
  let p = (ctx.round + 1) land 1 in
  if ctx.msg_round.(p).(dir) = ctx.round + 1 then
    err_duplicate ctx w (Array.length payload);
  let words = Array.length payload in
  if words > ctx.bandwidth then err_bandwidth ctx w words;
  ctx.msg_round.(p).(dir) <- ctx.round + 1;
  ctx.msg_len.(p).(dir) <- words;
  Array.blit payload 0 ctx.arena.(p) (dir * ctx.bandwidth) words;
  account ctx dir words;
  if not ctx.has_mail.(w) then begin
    ctx.has_mail.(w) <- true;
    ctx.next_recv.(ctx.next_recv_n) <- w;
    ctx.next_recv_n <- ctx.next_recv_n + 1
  end

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
let make_ctx ~bandwidth ~trace ~fstate ~hook g =
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
    faults = fstate;
    hook;
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

let run_sync ~bandwidth ~max_rounds ~trace ~faults g algo =
  let n = Graph.n g in
  let m = Graph.m g in
  (* a plan that can never fire stays on the fast path entirely *)
  let fstate =
    match faults with
    | Some plan when not (Faults.is_zero plan) ->
        Some
          {
            fs = Faults.start plan g;
            sent_round = Array.make (2 * m) (-1);
            last_due = Array.make (2 * m) 0;
            buckets = Hashtbl.create 64;
            in_flight = 0;
          }
    | _ -> None
  in
  let states = Array.init n (fun v -> algo.init g v) in
  let ctx = make_ctx ~bandwidth ~trace ~fstate ~hook:None g in
  let bandwidth = ctx.bandwidth in
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
  let round = ref 0 in
  let active_steps = ref 0 in
  let stamp = Array.make n 0 in
  while (not !converged) && !round < max_rounds do
    incr round;
    ctx.round <- !round;
    let p = !round land 1 in
    (* fault path: materialize the messages due this round into the arena
       and register their receivers, before the receiver-list swap below
       moves the registrations into this round's step list.  Bucket order
       is push order, i.e. send order — the same order the clean path
       registers receivers in, so a zero-effect plan reproduces the clean
       worklists exactly. *)
    (match fstate with
    | Some f -> (
        match Hashtbl.find_opt f.buckets !round with
        | Some lst ->
            Hashtbl.remove f.buckets !round;
            List.iter
              (fun (dir, w, payload) ->
                f.in_flight <- f.in_flight - 1;
                ctx.msg_round.(p).(dir) <- !round;
                ctx.msg_len.(p).(dir) <- Array.length payload;
                Array.blit payload 0 ctx.arena.(p) (dir * bandwidth)
                  (Array.length payload);
                if not ctx.has_mail.(w) then begin
                  ctx.has_mail.(w) <- true;
                  ctx.next_recv.(ctx.next_recv_n) <- w;
                  ctx.next_recv_n <- ctx.next_recv_n + 1
                end)
              (List.rev !lst)
        | None -> ())
    | None -> ());
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
      match fstate with
      | Some f -> Faults.crashed f.fs ~node:v ~round:!round
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
    if
      !awake_n = 0 && ctx.next_recv_n = 0
      && match fstate with Some f -> f.in_flight = 0 | None -> true
    then converged := true
  done;
  ( states,
    finish_run ctx
      ~faults:
        (match (faults, fstate) with
        | Some plan, Some f -> Some (plan, f.fs, f.in_flight)
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
   about the fabric — ctx construction, send validation and accounting,
   the parity arenas, the inbox view, and the algorithm states.  The
   α-synchronizer's invariant (at most two pulses of undelivered messages
   per directed edge, because pulse p + 2 sends require the safe(p + 1)
   handshake, which happens after the pulse p + 1 consumption) is exactly
   what the two parity-indexed arenas need to stay collision-free. *)
module Hook = struct
  type t = {
    hctx : ctx;
    hstate : hook_state;
    plan : Faults.plan option;
    step_fn : int -> unit;
    awake_fn : int -> bool;
    mutable steps : int;
  }

  let create ?(bandwidth = 4) ?trace ?faults ~on_send g algo =
    let fs =
      match faults with
      | Some plan when not (Faults.is_zero plan) -> Some (Faults.start plan g)
      | _ -> None
    in
    let m = Graph.m g in
    let hstate =
      { h_send = on_send; h_sent = Array.make (2 * m) (-1); h_fs = fs }
    in
    let hctx = make_ctx ~bandwidth ~trace ~fstate:None ~hook:(Some hstate) g in
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
        hstate;
        plan = faults;
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
    match t.hstate.h_fs with Some fs -> Faults.crash_round fs v | None -> -1

  let deliver t ~dir ~pulse payload =
    let ctx = t.hctx in
    let p = pulse land 1 in
    let words = Array.length payload in
    ctx.msg_round.(p).(dir) <- pulse;
    ctx.msg_len.(p).(dir) <- words;
    Array.blit payload 0 ctx.arena.(p) (dir * ctx.bandwidth) words

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
        (match (t.plan, t.hstate.h_fs) with
        | Some plan, Some fs -> Some (plan, fs, 0)
        | _ -> None)
      ~rounds ~active_steps:t.steps ~converged
end
