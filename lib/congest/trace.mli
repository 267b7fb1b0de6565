(** Opt-in congestion telemetry for the CONGEST executor.

    The paper's bounds are statements about *per-edge* congestion — the
    quality [q = b * d_T + c] of a shortcut is realized as the number of
    rounds a part-wise aggregation needs, and the [c] term is exactly the
    number of messages the busiest tree edge must serialize. A [Trace.t]
    threaded through {!Network.run} records that profile, which the
    run totals of {!Network.stats} do not carry; it is the one place a
    message's edge load is counted:

    - per-round message and word counts,
    - cumulative load per directed edge (edge [e] of the graph owns the
      directed ids [2e] — endpoint order of [Graph.edge] — and [2e + 1]),
    - the running max-edge-congestion time series (one entry per round).

    A trace accumulates across runs: threading the same trace through the
    aggregations of every Boruvka phase yields the congestion profile of
    the whole MST execution. All recording is O(1) per message. *)

type t

val create : Graphlib.Graph.t -> t
(** A fresh, empty trace for a graph. The trace keeps the graph (to name
    the busiest edge's endpoints) and never mutates it. *)

(** {1 Recording — called by {!Network.run}} *)

val on_send : t -> dir_edge:int -> words:int -> unit
(** Record one message of [words] payload words crossing directed edge
    [dir_edge] (= [2 * edge_id + direction]). *)

val on_drop : t -> unit
(** Record one message lost to the fault layer (random drop, link failure,
    or a crashed receiver). *)

val on_delay : t -> unit
(** Record one message the fault layer delivered late. *)

val on_retry : t -> unit
(** Record one retransmission by the {!Resilient} combinator. *)

val on_round_end : t -> unit
(** Close the current round: pushes the round's message/word counts, the
    current max cumulative edge load, and the round's drop/delay/retry
    counts onto the time series. *)

(** {1 Queries} *)

val rounds : t -> int
val messages : t -> int
val words : t -> int

val dropped : t -> int
(** Messages lost to the fault layer; 0 on a clean run. *)

val delayed : t -> int
val retried : t -> int

val max_edge_load : t -> int
(** The paper's empirical congestion: the busiest directed edge's
    cumulative message count. 0 on an empty trace. *)

val round_messages : t -> int array
(** Messages delivered per round, index 0 = first recorded round. Fresh
    array. *)

val round_words : t -> int array

val max_load_series : t -> int array
(** After each round, the max cumulative directed-edge load so far — the
    congestion growth curve; nondecreasing. Fresh array. *)

val round_dropped : t -> int array
(** Messages lost per round; all zeros on a clean run. Fresh array. *)

val round_delayed : t -> int array

val round_retried : t -> int array
(** Retransmissions recorded per round by the resilience layer; all zeros
    on a clean run. Fresh array. *)

(** {1 Export} *)

type summary = {
  rounds : int;
  messages : int;
  words : int;
  max_edge_load : int;
  busiest_edge : (int * int) option;  (** endpoints, send direction *)
  peak_round_messages : int;  (** busiest single round *)
  mean_round_messages : float;
  dropped : int;  (** messages lost to the fault layer *)
  delayed : int;  (** messages delivered late *)
  retried : int;  (** retransmissions by the resilience layer *)
}

val summary : t -> summary

val summary_to_string : summary -> string
(** One line, for bench output:
    ["rounds=.. msgs=.. words=.. max_edge_load=.. (u->v) peak_round=.."].
    Fault counters ([dropped=..] etc.) are appended only when nonzero, so
    clean-run lines are byte-identical to the pre-fault-layer format. *)

val per_round_to_json : t -> Obs.Sink.json
(** [{"messages": [...], "words": [...], "max_edge_load": [...]}] — the
    per-round series as one JSON object; the fault series (dropped,
    delayed, retried) appear only when their totals are nonzero. *)

val emit : ?label:string -> ?full:bool -> t -> unit
(** Emit one ["trace_summary"] event into the installed {!Obs.Sink} (no-op
    when no sink is active): the summary fields, an optional [label], and —
    with [full] — the per-round series from {!per_round_to_json}. *)
