(** The uniform tree-restricted shortcut construction (HIZ16a style).

    This is the algorithm the paper's Theorem 1 actually runs: it never looks
    at the graph structure. Every part starts from its full Steiner subtree
    of [T]; a congestion threshold [kappa] is then enforced on every tree
    edge, splitting the parts that lose edges into more blocks. Sweeping
    [kappa] over powers of two and keeping the best measured quality is
    within O(log) factors of the best T-restricted shortcut — so on graphs
    where good shortcuts *exist* (the paper's existence theorems), this
    construction *finds* ones of comparable quality. *)

type policy =
  | Drop_all  (** overloaded edges are removed from every part *)
  | Keep_kappa  (** each overloaded edge keeps its [kappa] largest parts *)

val default_kappas : int -> int list
(** Powers of two up to (and including) the given maximum load. *)

type frontier_point = {
  kappa : int;
  b : int;  (** block parameter *)
  c : int;  (** congestion *)
  q : int;  (** quality, [b * height T + c] *)
}

val sweep :
  span:string ->
  policy ->
  kappas:int list option ->
  global:int list array ->
  Graphlib.Spanning.tree ->
  Part.t ->
  Steiner.t ->
  Shortcut.t * frontier_point list
(** The κ-sweep every backend ends in.  Part [i] is granted [global.(i)]
    at every threshold plus its Steiner subtree from the given forest,
    pruned at [kappa] by the policy's rule, ranked once per forest.  Each
    [kappa] (default: powers of two up to the forest's max load) is scored
    without building a {!Shortcut.t}; congestion is closed-form when no
    part has a global grant and counted per edge otherwise.  Returns the
    shortcut of the first [kappa] of minimum quality (the global grants
    alone for an empty list) and the curve in [kappas] order; the sweep
    runs under the span [span]. *)

val construct :
  ?policy:policy -> ?kappas:int list -> Graphlib.Spanning.tree -> Part.t -> Shortcut.t
(** {!sweep} over the parts' full Steiner forest with no global grants:
    the minimum-quality shortcut.  [construct ~kappas:[k]] is the forest
    pruned at [k]. *)

val construct_with_stats :
  ?policy:policy ->
  ?kappas:int list ->
  Graphlib.Spanning.tree ->
  Part.t ->
  Shortcut.t * frontier_point list
(** Also returns the sweep's curve, one point per [kappa]. *)

val frontier :
  ?policy:policy -> ?kappas:int list -> Graphlib.Spanning.tree -> Part.t -> frontier_point list
(** The (block, congestion) tradeoff curve of the sweep — the curve of
    {!construct_with_stats}, sharing its memo entry: the object the
    paper's open problem (§2.4 — can b = O(d) be improved to Õ(1)?) is
    about.  Each point equals the {!Shortcut.block_parameter},
    {!Shortcut.congestion} and {!Shortcut.quality} of
    [construct ~kappas:[kappa]]. *)
