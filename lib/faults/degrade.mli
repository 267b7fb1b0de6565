(** Graceful-degradation measurement.

    When a fault plan breaks the synchronous-lossless assumptions the
    paper's round bounds are proved under, the interesting output is not
    the exception but the distance between what the algorithm produced and
    what a clean run produces.  These are the comparison helpers the
    R-series experiments and the resilience layer report with. *)

type dist_report = {
  nodes : int;  (** vertices in the graph *)
  compared : int;  (** vertices the comparison covered *)
  unreached : int;  (** reachable in the reference, unreached when faulty *)
  wrong : int;  (** reached with a different value *)
  max_err : float;  (** largest absolute error over the wrong vertices *)
  mean_err : float;  (** mean absolute error over the compared vertices *)
}

val int_dists :
  ?ignore:int array -> reference:int array -> observed:int array -> unit -> dist_report
(** BFS-style integer distances; [-1] means unreachable.  [ignore] lists
    vertices excluded from the comparison (e.g. crashed nodes). *)

val float_dists :
  ?ignore:int array ->
  reference:float array ->
  observed:float array ->
  unit ->
  dist_report
(** SSSP-style float distances; [infinity] means unreachable. *)

val exact : dist_report -> bool
(** No vertex unreached, no vertex wrong. *)

val weight_gap : reference:float -> observed:float -> float
(** Relative gap [(observed - reference) / |reference|] — the MST weight
    degradation metric (0 on an exact run). *)
