(** Binary min-heap priority queue over float priorities. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int
val push : 'a t -> float -> 'a -> unit
val pop : 'a t -> (float * 'a) option
(** Removes and returns the minimum-priority element. *)

val peek : 'a t -> (float * 'a) option

(** Event-queue min-heap for discrete-event simulation: entries are keyed
    by the lexicographic composite [(time, a, b)] — for the asynch
    executors, [(delivery_time, edge_direction, seq)] — so same-instant
    events pop in a replay-exact deterministic order.  Payloads are
    immediate ints the caller encodes (an event kind, a pulse, a payload
    slot).

    Times sit in one unboxed float array and [a], [b] and the payload in
    one int array with stride 3.  One branch-free predicate, the strict
    [(time, a, b)] less-than, orders the heap: [pop] is Floyd's
    bottom-up deletion (the hole walks to a leaf along the smaller
    child, chosen without a branch, then the last entry sifts up from
    there) and [push] sifts up into a hole.  The minimum is read field
    by field, so neither [push] nor [pop] allocates once the backing
    stores have grown.  Times must not be NaN.  There is no
    [decrease_key]: a scheduled event never reschedules. *)
module Event : sig
  type t

  val create : unit -> t
  val is_empty : t -> bool
  val size : t -> int

  val high_water : t -> int
  (** Max [size] ever observed — the event-queue depth gauge. *)

  val push : t -> time:float -> a:int -> b:int -> int -> unit

  val min_time : t -> float
  (** Time of the minimum-key event.
      @raise Invalid_argument on an empty queue. *)

  val min_a : t -> int
  (** [a] key of the minimum-key event.
      @raise Invalid_argument on an empty queue. *)

  val pop : t -> int
  (** Removes the minimum-key event and returns its payload; read its
      keys first with {!min_time} and {!min_a}.
      @raise Invalid_argument on an empty queue. *)
end
