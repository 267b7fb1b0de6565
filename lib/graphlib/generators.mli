(** Generators for every graph family the paper discusses.

    Planar generators also return a straight-line embedding (coordinates) and
    the outer face, which the combinatorial-gate construction (paper Lemma 7)
    and the vortex construction (Definition 4) consume. *)

type planar = {
  graph : Graph.t;
  coords : (float * float) array;  (** straight-line planar embedding *)
  outer_face : int array;  (** outer boundary cycle, in order *)
}

(** {1 Elementary families} *)

val path : int -> Graph.t
val cycle : int -> Graph.t

val star : int -> Graph.t
(** Center is vertex 0. *)

val wheel : int -> Graph.t
(** Cycle of [n-1] outer vertices plus a hub (vertex [n-1]): the paper's
    running example of an apex collapsing the diameter. *)

val complete_bipartite : int -> int -> Graph.t
val binary_tree : int -> Graph.t
val petersen : unit -> Graph.t
val random_tree : seed:int -> int -> Graph.t

val erdos_renyi : seed:int -> int -> float -> Graph.t
(** G(n,p); retried until connected (caller should keep [p] above the
    connectivity threshold). *)

(** {1 Planar families (exclude K5 and K3,3)} *)

val grid : int -> int -> planar
(** [grid w h]: the w x h grid with unit coordinates; diameter [w+h-2]. *)

val apollonian : seed:int -> int -> planar
(** Random Apollonian network (random maximal planar graph) on [n >= 3]
    vertices, built by repeated face subdivision; straight-line embedded. *)

(** {1 Bounded-treewidth families} *)

val series_parallel : seed:int -> int -> Graph.t
(** Random series-parallel graph (treewidth <= 2, excludes K4) built by random
    series/parallel compositions between terminals 0 and 1. *)

val k_tree : seed:int -> k:int -> int -> Graph.t * int array
(** Random k-tree on [n] vertices plus a perfect elimination order witness
    (vertices in reverse insertion order); treewidth exactly [k] for
    [n > k]. *)

(** {1 Surfaces} *)

val torus_grid : int -> int -> Graph.t
(** [torus_grid w h]: grid with wraparound in both dimensions; genus 1. *)

(** {1 Apexes and the lower-bound family} *)

val add_apices : seed:int -> Graph.t -> q:int -> fanout:int -> Graph.t
(** Add [q] apex vertices (new ids [n..n+q-1]), each connected to [fanout]
    random old vertices, to each other, and to at least one old vertex so the
    result stays connected. *)

val cycle_with_apex : int -> Graph.t
(** The wheel built as cycle + universal apex: diameter collapses from
    [n/2] to 2 (paper §2.3.2's motivating example). *)

val lower_bound : int -> Graph.t * int array
(** [lower_bound p]: the Peleg–Rubinovich / [SHK+12]-style hard family
    Gamma(p): [p] disjoint paths of length [p] plus a balanced binary tree
    over the columns, whose leaf [j] connects to the j-th vertex of every
    path. Diameter O(log p) with n = Theta(p^2), yet any shortcut solution
    has quality Omega(p) = Omega(sqrt n). Also returns the array of path
    starting vertices (the canonical "parts" are the paths). *)

val lower_bound_parts : int -> Graph.t * int list list
(** Same graph plus the canonical partition into the [p] paths. *)

(** {1 Stress families (not minor-free)} *)

val rmat :
  ?state:Random.State.t ->
  ?a:float ->
  ?b:float ->
  ?c:float ->
  seed:int ->
  scale:int ->
  edge_factor:int ->
  unit ->
  Graph.t
(** [rmat ~seed ~scale ~edge_factor ()] is the recursive-matrix (Graph500
    style) power-law generator on [n = 2^scale] vertices from
    [edge_factor * n] quadrant-recursive samples with probabilities
    [(a, b, c, 1-a-b-c)] (defaults 0.57/0.19/0.19); self-loops and
    duplicate samples are dropped, so [m] lands slightly below
    [edge_factor * n].  Not minor-free and heavy-tailed — the stress
    family for the CSR substrate, not a shortcut-friendly input.
    Deterministic in [seed]; pass [state] (e.g. a [Faults.Rng] stream)
    to drive sampling from an external stream instead, in which case
    [seed] is ignored. *)

