(** Binary min-heap keyed by [(time, sequence)].

    The sequence number makes the order total and FIFO among
    simultaneous entries, which keeps simulations deterministic. Keys are
    held unboxed in int arrays (struct of arrays) and a queued value is
    never moved, so no operation allocates except growing the arrays.
    Vacated slots are cleared, so the heap never retains a reference to
    a value it no longer holds.

    [min_time], [min_seq] and [pop_min] raise [Invalid_argument] on an
    empty heap; test {!is_empty} first. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> time:int -> seq:int -> 'a -> unit

val min_time : 'a t -> int
(** Time of the smallest entry. *)

val min_seq : 'a t -> int
(** Sequence number of the smallest entry. *)

val pop_min : 'a t -> 'a
(** Remove the smallest entry and return its value. *)

val pop : 'a t -> (int * int * 'a) option
(** [Some (min_time, min_seq, pop_min)], or [None] when empty. This
    allocating form is kept only for the heap replay in
    [perfbench/layers.ml]; code in [lib/] uses the accessors above. *)
