(** Tree decompositions (paper §2.3.1): a tree of bags satisfying (i) bag
    union covers V, (ii) the bags containing any vertex form a subtree,
    (iii) every edge has both endpoints in some bag. *)

type t = {
  bags : int array array;  (** bag id -> sorted vertex set *)
  parent : int array;  (** rooted tree over bag ids, [-1] at the root *)
}

val width : t -> int
(** Max bag size minus one. *)

val nbags : t -> int
val root : t -> int

val check : Graphlib.Graph.t -> t -> (unit, string) result
(** Validates all three properties against the graph. *)

val of_elimination_order : Graphlib.Graph.t -> int array -> t
(** Standard construction from a vertex elimination order: eliminating [v]
    forms a bag of [v] plus its not-yet-eliminated neighbors (after fill-in),
    attached to the bag of the earliest-eliminated bag member. Width equals
    the order's induced width. Requires a connected graph. *)

