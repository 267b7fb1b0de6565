(** Measurement records for shortcut experiments: one row per (graph,
    workload, construction), carrying everything the paper's bounds mention. *)

type row = {
  label : string;
  n : int;
  m : int;
  diameter : int;  (** graph diameter (double-sweep lower bound) *)
  d_tree : int;  (** height of the spanning tree used *)
  nparts : int;
  b : int;  (** block parameter *)
  c : int;  (** congestion *)
  q : int;  (** quality b * d_T + c *)
  obs_c : int option;
      (** observed max per-edge load from a traced simulation, when one ran *)
}

val measure : label:string -> ?observed_congestion:int -> Shortcut.t -> row
(** [observed_congestion] is typically [Trace.max_edge_load] of a traced
    aggregation over [sc]; it lands in the [obs_c] column. *)

val header : unit -> string
val to_string : row -> string

val ratio : row -> float -> float
(** [ratio row bound] is [q / bound]: constant across a sweep iff the bound's
    shape is right. *)

val fit_exponent_opt : (float * float) list -> float option
(** Least-squares slope of log y against log x: the measured growth exponent
    of a sweep (e.g. q against n). Points with non-positive coordinates are
    ignored; [None] with fewer than two usable points — callers should print
    an explicit "insufficient points" marker (and JSON [null]) rather than a
    [nan]. *)

val fit_exponent : (float * float) list -> float
(** {!fit_exponent_opt} collapsed to [nan] on insufficient data. Prefer the
    [_opt] form anywhere the result is printed or serialized. *)
