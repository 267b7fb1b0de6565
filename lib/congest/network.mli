(** Synchronous CONGEST-model executor (paper §1.3.1).

    Rounds proceed in lockstep; in each round every node may send one message
    of at most [bandwidth] words (a word stands for O(log n) bits) across
    each incident edge, in each direction. Violations raise
    [Invalid_argument] — the simulator never silently widens the channel.
    Local computation is free.

    {2 Engine architecture (v3)}

    The executor is edge-indexed: every undirected edge [e] owns two
    directed message slots ([2e] in [Graph.edge] endpoint order, [2e + 1]
    reversed; see {!dir_of}). Payloads live in a flat, preallocated arena
    rather than per-message boxed arrays, and slot occupancy is a round
    stamp: two parity-indexed arenas alternate between the round being
    stepped and the round being written, so sends never clobber
    undelivered messages and no buffer is ever cleared.

    The engine keeps no copy of the topology: it reads the graph's CSR.
    [send_all] walks the sender's segment, [send] resolves the edge by
    binary search over the neighbour-sorted order, and the inbox fill
    walks the receiver's neighbour-sorted order from its end. A run
    allocates only its message state (the two arenas with their length and
    round stamps, an inbox scratch of the maximum degree, the worklists),
    and a steady-state round — every node re-stepping, every edge busy —
    allocates nothing.

    A send under a live fault plan, or under a {!Hook}, is deferred
    instead: one code path checks capacity against a per-direction send
    stamp, runs the fault gauntlet (link failure, drop roll, delay roll,
    in send order) and offers each survivor to the engine that owns
    delivery, which queues it or refuses it. Every message is counted
    once, at send time: delivered (and delayed) or dropped. A run with
    neither a plan nor a hook allocates no deferral state.

    Nodes are stepped from an active worklist, not by scanning all [n]:
    a node is stepped in a round iff it has mail or it reported
    [finished = false] after its previous step. A finished node is
    re-activated (and re-stepped) only by message receipt; while its inbox
    stays empty it is guaranteed not to run, so [step] never observes a
    spurious wake-up. Execution converges when no node is awake and no
    message is in flight.

    A stepped node reads its mail through the indexed inbox accessors
    ({!inbox_size}, {!inbox_sender}, {!inbox_words}, {!inbox_word}); the
    view is valid only during that node's [step] call and is presented in
    descending sender order. *)

(** A run's totals.  Per-edge congestion (the busiest directed edge, its
    load, the per-round series) is counted once per message by an attached
    {!Trace.t}, not here. *)
type stats = {
  rounds : int;  (** rounds until all nodes finished (or the cap) *)
  messages : int;  (** total messages delivered *)
  words : int;  (** total payload words across all messages *)
  active_steps : int;
      (** node steps actually executed; [n * rounds] minus the quiescence
          savings *)
  converged : bool;  (** all nodes reported finished before the cap *)
  dropped : int;
      (** messages lost to the fault layer (random drop, link failure, or a
          receiver crashed before delivery); 0 without a fault plan *)
  delayed : int;  (** messages delivered late by the fault layer *)
  retried : int;  (** retransmissions recorded via {!note_retry} *)
}

type ctx
(** Per-round execution context handed to [step]: identifies the node and
    round and carries the send fabric plus the node's inbox view. Valid
    only for the duration of the [step] call it is passed to. *)

val node : ctx -> int
(** The node being stepped. *)

val round : ctx -> int
(** The current round, starting at 1. *)

val graph : ctx -> Graphlib.Graph.t

val dir_of : Graphlib.Graph.t -> int -> int -> int
(** [dir_of g e u] is the directed slot of edge [e] leaving endpoint [u]:
    [2e] when [u] is [Graph.edge_u g e], [2e + 1] otherwise; the reverse
    slot is [dir_of g e u lxor 1].  The one definition of the slot
    numbering that sends, traces, fault checks and lib/asynch share. *)

val degree : ctx -> int
(** Degree of the current node. *)

val inbox_size : ctx -> int
(** Messages received by the current node this round; [0] for a node
    stepped only because it is unfinished. *)

val inbox_sender : ctx -> int -> int
(** [inbox_sender ctx i] is the neighbor that sent message [i]
    ([0 <= i < inbox_size ctx]); messages are indexed in descending
    sender order. *)

val inbox_words : ctx -> int -> int
(** Payload length of message [i], in words. *)

val inbox_word : ctx -> int -> int -> int
(** [inbox_word ctx i j] is word [j] of message [i]'s payload — a direct
    arena read, no per-message allocation.
    @raise Invalid_argument if [j] is outside the payload. *)

val send : ctx -> int -> int array -> unit
(** [send ctx w payload] puts one message on the edge to neighbor [w],
    delivered at the start of the next round. The payload words are copied
    into the fabric, so the caller may reuse (or mutate) the array after
    the call — sending from one preallocated scratch buffer is the
    intended allocation-free pattern.
    @raise Invalid_argument on a non-neighbor target, a second message on
    the same edge in the same round, or an oversized payload. *)

val send_all : ctx -> int array -> unit
(** [send_all ctx payload] broadcasts one copy of [payload] to every
    neighbor of the current node (O(degree), no neighbor lookups). The
    payload is copied per edge, as with {!send}. *)

val note_retry : ctx -> unit
(** Record one retransmission into the run's fault telemetry (stats,
    trace, [faults.retried]).  Called by the {!Resilient} combinator; an
    algorithm implementing its own retry discipline may call it too. *)

type 'st algo = {
  init : Graphlib.Graph.t -> int -> 'st;
  step : ctx -> 'st -> 'st;
      (** Incoming messages are read through the inbox accessors on [ctx];
          outgoing messages go through {!send} / {!send_all}. Returns the
          new state. *)
  finished : 'st -> bool;
      (** Polled after every step; a node whose state is finished leaves
          the worklist until a message arrives for it. *)
}

val run :
  ?bandwidth:int ->
  ?max_rounds:int ->
  ?trace:Trace.t ->
  ?faults:Faults.plan ->
  Graphlib.Graph.t ->
  'st algo ->
  'st array * stats
(** Defaults: [bandwidth = 4] words, [max_rounds = 1_000_000], no trace.
    When [trace] is given, every send and round boundary is recorded into
    it (see {!Trace}); the same trace may be threaded through several runs
    to accumulate a whole execution's congestion profile.

    When [faults] is given (and not {!Faults.is_zero}), the plan is
    compiled against [g] and every send runs the fault gauntlet: link
    failure, Bernoulli drop, bounded delivery delay, receiver crash (see
    {!Faults} and DESIGN.md section 11).  Fault schedules are a pure
    function of the plan seed.  Delayed deliveries are serialized so the
    one-message-per-edge-direction-per-round invariant still holds, and
    convergence additionally requires no message left in flight.  A run
    with a zero-effect plan is byte-identical — same states, stats and
    trace — to a run with no plan; a run with no plan (or a zero plan)
    stays on the allocation-free fast path. *)

type runner = {
  run_algo :
    'st.
    bandwidth:int ->
    max_rounds:int ->
    trace:Trace.t option ->
    faults:Faults.plan option ->
    Graphlib.Graph.t ->
    'st algo ->
    'st array * stats;
}
(** An alternative execution substrate for step-API algorithms, e.g. the
    α-synchronizer over the event-driven executor (lib/asynch). *)

val with_runner : runner -> (unit -> 'a) -> 'a
(** [with_runner r f] installs [r] as this domain's substrate for the
    duration of [f]: every {!run} call inside — including the ones buried
    in the [Bfs]/[Sssp]/[Leader]/[Mst]/[Mincut]/[Aggregate] entry points —
    is delegated to [r.run_algo] with the algorithm unchanged.  The slot
    is domain-local (parallel bench cells cannot observe each other's
    substrate) and restored on exit, exceptions included. *)

(** Delivery hooks: an externally-driven engine instance for event-driven
    executors (DESIGN.md section 16).  The hook owns what the synchronous
    engine knows about the fabric — the same deferred send (validation,
    fault gauntlet, accounting) the synchronous engine runs under a fault
    plan, parity arenas, inbox views, algorithm states — while the
    caller owns time: it hears of every accepted send through [on_send],
    decides when it arrives, and runs node steps with {!Hook.step}.

    An accepted message's words are written into the receiver's parity
    arena at send time, stamped for the pulse after the sender's, so the
    caller never handles a payload.  That is sound only if the caller
    keeps the α-synchronizer's order: a node runs pulse [q + 2] (and so
    rewrites that arena slot) only after the receiver has consumed the
    slot's pulse-[q + 1] message and sent its safe([q + 1]), and a
    receiver consumes pulse [q + 1] only after every pulse-[q + 1]
    message to it has arrived.  A receiver that is dead by then never
    reads the slot. *)
module Hook : sig
  type t

  val create :
    ?bandwidth:int ->
    ?trace:Trace.t ->
    ?faults:Faults.plan ->
    on_send:(dir:int -> dst:int -> delay_rounds:int -> words:int -> unit) ->
    Graphlib.Graph.t ->
    'st algo ->
    t * (unit -> 'st array)
  (** Build the engine instance and return it with a reader for the live
      states array.  [on_send] fires for every message that passes
      validation and the fault gauntlet, while the sender's step is
      running, after its words are in the arena: [dir] is the
      directed-edge slot, [dst] the receiver, [delay_rounds] the fault
      plan's delay roll (0 without one), and [words] the payload length
      (what a bandwidth-capped link serializes).  Link, drop
      and delay faults are consumed here at send time, in send order, by
      the synchronous engine's own gauntlet and streams; a message
      [on_send] receives is counted as sent, one the gauntlet loses as
      dropped.  Receiver crashes are the caller's to enforce at arrival
      (see {!crash_round}, {!note_lost}). *)

  val n : t -> int
  val graph : t -> Graphlib.Graph.t

  val awake : t -> int -> bool
  (** [true] iff the node's state is not finished — the same predicate
      the synchronous worklist uses. *)

  val dir_dst : t -> int -> int
  (** Receiver of directed slot [dir]. *)

  val dir_src : t -> int -> int
  (** Sender of directed slot [dir]; the reverse slot is [dir lxor 1]. *)

  val crash_round : t -> int -> int
  (** First pulse the node is dead per the fault plan, or [-1]. *)

  val step : t -> node:int -> pulse:int -> unit
  (** Fill the node's inbox view from the messages stamped [pulse] (in
      descending sender order, as the synchronous engine does) and, iff
      the inbox is non-empty or the node is {!awake}, run the algorithm's
      step with [round ctx = pulse] — the synchronous worklist's
      predicate, evaluated with one inbox scan. *)

  val note_lost : t -> unit
  (** Record a message lost at arrival (receiver crashed) into the run's
      drop telemetry. *)

  val wave_end : t -> unit
  (** Mark a round boundary on the attached trace, if any. *)

  val finish : t -> rounds:int -> converged:bool -> stats
  (** Close the run exactly as the synchronous engine closes one (the
      [faults.*] counters and a [fault_summary] event when a plan is live,
      with [undelivered = 0]: arrival losses count as drops) and return
      the stats with the caller's round count and convergence flag. *)
end

val empty_stats : stats
(** All-zero, [converged = true] — the unit for {!add_stats}. *)

val add_stats : stats -> stats -> stats
(** Sequential composition: the counts add, convergence is the
    conjunction. *)
