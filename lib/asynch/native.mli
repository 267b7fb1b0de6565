(** Native event-driven algorithms — no rounds, no synchronizer.

    A node reacts to each message as it arrives (the classic
    asynchronous model, à la AsyncLCR); the executor shares the
    determinism contract and latency models of {!Synchronizer}, and the
    run ends at quiescence.  Comparing a native port against the same
    problem under the α-synchronizer isolates the cost of synchrony. *)

type ctx
(** Handed to [start] / [receive]; valid only during that callback. *)

val node : ctx -> int
val now : ctx -> float
(** Current simulated time. *)

val graph : ctx -> Graphlib.Graph.t

val send : ctx -> int -> int array -> unit
(** Put one message on the edge to a neighbor; it arrives after a
    sampled latency (plus FIFO serialization under bandwidth caps).  The
    payload is copied.  Unlike the synchronous fabric there is no
    per-round budget — only the per-message width cap applies.
    @raise Invalid_argument on a non-neighbor or oversized payload. *)

val send_all : ctx -> int array -> unit

type 'st algo = {
  init : Graphlib.Graph.t -> int -> 'st;
  start : ctx -> 'st -> 'st;  (** fired once per node at time zero *)
  receive : ctx -> src:int -> payload:int array -> 'st -> 'st;
}

type report = {
  sim_time : float;  (** time of the last delivery *)
  msgs : int;
  events : int;
  queue_hwm : int;
  quiesced : bool;  (** false iff the [max_events] rail stopped the run *)
}

val run :
  ?bandwidth:int ->
  ?max_events:int ->
  spec:Latency.spec ->
  Graphlib.Graph.t ->
  'st algo ->
  'st array * report
(** Defaults: [bandwidth = 4] words, [max_events = 10_000_000] (a
    runaway rail, not a tuning knob). *)

type bfs_state = { dist : int; parent : int }

val bfs : root:int -> bfs_state algo
(** Asynchronous distance flooding (Bellman-Ford on unit weights): at
    quiescence [dist] equals the synchronous BFS distance on every
    reachable node, whatever the latency schedule. *)

type leader_state = { best : int; is_leader : bool }

val leader : leader_state algo
(** Flood-max election: at quiescence [best] is the component's maximum
    id and exactly that node keeps [is_leader = true]. *)
