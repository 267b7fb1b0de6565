(** Part-wise minimum aggregation — the primitive the shortcut framework
    accelerates (§1.3.3: "each node wants to compute the min of x_v between
    all nodes in its own part").

    Every vertex of part [P_i] starts with a (key, data) value; flooding runs
    over the part's communication graph [G[P_i] + H_i]. The CONGEST
    constraint — one message per edge-direction per round — is enforced by
    the executor, so shared shortcut edges serialize the parts using them:
    the measured round count *is* the empirical quality O(b·d + c) of the
    shortcut, delays included, not a model of it. *)

type result = {
  stats : Network.stats;
  mins : (float * int) option array;
      (** per vertex: the minimum its own part converged to *)
}

val lt : float -> int -> float -> int -> bool
(** [lt k d k' d'] is the order aggregation minimizes: [(k, d)] before
    [(k', d')] lexicographically, keys compared as floats.  Equal to the
    polymorphic [(k, d) < (k', d')] on (float * int) pairs, without
    boxing either pair. *)

val minimum :
  ?max_rounds:int ->
  ?trace:Trace.t ->
  ?faults:Faults.plan ->
  Shortcuts.Shortcut.t ->
  values:(float * int) option array ->
  result
(** [values.(v)] is vertex v's input (ignored for vertices outside parts). *)

val true_minimum :
  Shortcuts.Part.t -> values:(float * int) option array -> (float * int) option array
(** Centralized reference result. *)

val verify :
  Shortcuts.Shortcut.t -> values:(float * int) option array -> result -> bool
(** Every part vertex learned the true part minimum. *)

val rounds_for_parts :
  ?max_rounds:int -> ?trace:Trace.t -> Shortcuts.Shortcut.t -> seed:int -> int
(** Convenience: run one aggregation with random values and return the round
    count (the per-phase cost charged by the MST / min-cut algorithms). *)

(** {1 Non-idempotent aggregates}

    Minimum can flood (repeated delivery is harmless); SUM cannot. Each part
    instead builds a spanning tree of its communication graph
    [G[P_i] + H_i] and runs a convergecast followed by a broadcast, with
    physical edges shared between parts serialized (one message per
    edge-direction per round, FIFO), so congestion again delays the
    schedule observably. *)

type sum_result = {
  rounds : int;  (** convergecast + broadcast makespan *)
  sums : float option array;  (** per vertex: its part's total *)
}

val sum : Shortcuts.Shortcut.t -> values:float option array -> sum_result

val verify_sum :
  Shortcuts.Shortcut.t -> values:float option array -> sum_result -> bool
