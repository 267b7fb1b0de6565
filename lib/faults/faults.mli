(** Deterministic fault injection for the CONGEST simulator.

    A {!plan} describes, as pure data, how the network misbehaves: per-edge
    Bernoulli message drop, bounded per-edge delivery delay, transient link
    failures over round intervals, and fail-stop node crashes at scheduled
    rounds.  {!start} compiles a plan against a concrete graph into the
    {!state} the engine consults on its send path.

    Every random choice comes from a named stream derived from the plan
    seed ({!Rng.named}), so the same seed replays the same drop / delay /
    crash schedule on every run, on every domain, at every [--jobs]
    setting — and fault randomness can never share a stream with an
    algorithm's own seeded randomness.

    The consumers are [Congest.Network.run ?faults] (engine hook),
    [Congest.Resilient] (ack/retry combinator), and the bench R-series. *)

module Rng = Rng
module Streams = Streams
module Degrade = Degrade

type link_failure = {
  u : int;
  v : int;
  from_round : int;  (** first round the link is down (1-based, inclusive) *)
  to_round : int;  (** last round the link is down (inclusive) *)
}

type crash = {
  node : int;
  at_round : int;  (** first round the node is dead; it neither steps nor
                       receives from that round on (1-based) *)
}

type plan = {
  seed : int;  (** seeds the fault streams; independent of algorithm seeds *)
  drop : float;  (** per-message Bernoulli drop probability, in [0, 1) *)
  delay : float;  (** probability a message is delayed, in [0, 1] *)
  max_delay : int;  (** max extra rounds a delayed message waits, >= 1 *)
  links : link_failure list;
  crashes : crash list;
}

val none : plan
(** The zero plan: nothing dropped, delayed, failed or crashed. *)

val is_zero : plan -> bool
(** [true] iff the plan can never affect a run (drop and delay are 0, no
    link failures, no crashes).  The engine uses this to stay on the
    allocation-free fast path. *)

val make :
  ?drop:float ->
  ?delay:float ->
  ?max_delay:int ->
  ?links:link_failure list ->
  ?crashes:crash list ->
  int ->
  plan
(** [make seed] with all knobs defaulted to the zero plan. *)

type state
(** A plan compiled against a concrete graph; owns the fault RNG streams. *)

val start : plan -> Graphlib.Graph.t -> state
(** Validate the plan against [g] and derive the fault streams.
    @raise Invalid_argument on out-of-range rates, crashes of unknown
    nodes, or link failures naming a non-edge. *)

val crash_round : state -> int -> int
(** First round node [v] is dead, or [-1] if it never crashes. *)

val crashed : state -> node:int -> round:int -> bool

val link_down : state -> edge:int -> round:int -> bool
(** Is undirected edge [edge] down in [round]?  O(1) when the plan has no
    link failures. *)

val drop_roll : state -> bool
(** Advance the drop stream: [true] with probability [plan.drop].  Call
    exactly once per message actually offered to a live link, in send
    order, so the schedule is a pure function of the seed. *)

val delay_roll : state -> int
(** Advance the delay stream: [0] (deliver next round, the synchronous
    default) or an extra wait of [1 .. max_delay] rounds with probability
    [plan.delay]. *)

val plan_fields : plan -> (string * Obs.Sink.json) list
