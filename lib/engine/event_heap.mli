(** 4-ary min-heap of [(time, seq, value)] int triples.

    Events are ordered by [(time, seq)] where [seq] is a strictly
    increasing insertion counter, so two events scheduled for the same
    instant fire in insertion order (FIFO tie-breaking, matching ns-3
    semantics). Times are native-int nanoseconds (see {!Sim_time}) and
    the value is an int (the scheduler stores a slot index), so the
    heap is one flat int array: no push, pop or sift writes a pointer,
    and none allocates once the array has grown. *)

type t

val create : unit -> t

val length : t -> int
val is_empty : t -> bool

val push : t -> time:int -> seq:int -> int -> unit

val pop : t -> (int * int * int) option
(** Removes and returns the earliest event. *)

(** {2 Allocation-free root access}

    The scheduler's run loop uses these instead of [pop] to avoid
    building an option-of-tuple per event. *)

val top_time : t -> int
(** Time of the earliest event, or [max_int] when the heap is empty
    (so an ordinary [<=] against another deadline also handles the
    empty case). *)

val top_seq : t -> int
(** Sequence number of the earliest event. Only valid when non-empty. *)

val top_value : t -> int
(** Value of the earliest event. Only valid when non-empty. *)

val drop : t -> unit
(** Removes the earliest event. Only valid when non-empty. *)

val replace_top : t -> time:int -> seq:int -> int -> unit
(** [drop] followed by [push] in one sift. Only valid when non-empty. *)

val peek_time : t -> int option

val clear : t -> unit

val compact : t -> keep:(time:int -> seq:int -> int -> bool) -> unit
(** Removes every event [keep] rejects, in O(n) (filter + bottom-up
    heapify). [keep] is called exactly once per event. Survivors keep
    their exact [(time, seq)] keys, so the drain order of survivors is
    unchanged. Shrinks the backing array when survivors occupy less
    than a quarter of it. *)
