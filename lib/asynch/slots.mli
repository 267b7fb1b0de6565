(** Payload slots for the native executor's in-flight messages: the event
    heap's int payload names a slot, which holds the message words.  Freed
    slots are reused from an int stack, so steady state allocates nothing
    here.  The α-synchronizer needs none: its messages wait in the
    fabric's parity arenas (see [Congest.Network.Hook]). *)

type t

val create : unit -> t

val alloc : t -> int array -> int
(** Store a payload (kept, not copied); returns the slot. *)

val payload : t -> int -> int array

val release : t -> int -> unit
(** Drop the slot's payload and make the slot reusable. *)
