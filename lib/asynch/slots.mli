(** Payload slots for the asynch executors' in-flight data events: the
    event heap's int payload names a slot, which holds the message words
    and the pulse they belong to.  Freed slots are reused from an int
    stack, so steady state allocates nothing here. *)

type t

val create : unit -> t

val alloc : t -> pulse:int -> int array -> int
(** Store a payload (kept, not copied) and its pulse; returns the slot. *)

val payload : t -> int -> int array
val pulse : t -> int -> int

val release : t -> int -> unit
(** Drop the slot's payload and make the slot reusable. *)
