(** Discrete-event simulation engine.

    A single-threaded event loop over a {!Heap}. Callbacks scheduled at the
    same instant run in the order they were scheduled. Cancellation is by
    handle; cancelled events are skipped when popped. *)

type t

type handle
(** A scheduled event. *)

val create : unit -> t

val now : t -> Time.t
(** Current simulated time. [Time.zero] before the first event runs. *)

val schedule : t -> delay:Time.t -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t + delay].
    Raises [Invalid_argument] on a negative delay. *)

val schedule_at : t -> time:Time.t -> (unit -> unit) -> handle
(** Absolute-time variant. The time must not be in the simulated past. *)

val reserve : t -> time:Time.t -> int
(** [reserve t ~time] takes the sequence number an event scheduled now
    would receive and returns it, pushing nothing: [(time, seq)] is the
    key that event would have had. The holder may later push it with
    {!schedule_keyed}, or never push it when the event would have no
    work to do; either way every other event keeps its key. An
    unbounded {!run} that drains the queue leaves the clock no earlier
    than the latest reserved time, as if every reserved key had been
    popped. The time must not be in the past. *)

val schedule_keyed : t -> time:Time.t -> seq:int -> (unit -> unit) -> handle
(** Schedule at an explicit key previously obtained from {!reserve}.
    The time must not be in the past; the seq must be non-negative. *)

val precedes_running : t -> time:Time.t -> seq:int -> bool
(** [precedes_running t ~time ~seq] is [true] when the key sorts
    strictly before the event now running — an event at that key would
    already have run. Between runs it is [true] for keys at or before
    the clock that were reserved before the last run drained (or, after
    a run stopped by [max_events], that sort before the last event run),
    so a key reserved between runs at the current instant is still
    pending. *)

val set_running : t -> seq:int -> unit
(** Declare the seq of the work now running at [now t]. A batched
    delivery drain runs several reserved-key entries inside one heap
    event and declares each entry's key before running it, so that
    {!precedes_running} answers as it would for one event per entry. *)

val precedes_next : t -> time:Time.t -> seq:int -> bool
(** [precedes_next t ~time ~seq] is [true] when the key [(time, seq)]
    sorts strictly before the earliest queued event (cancelled ones
    included), or the queue is empty. A batching cursor asks this of
    its own queue's front to decide whether the next delivery is still
    globally next. *)

val cancel : t -> handle -> unit
(** Cancelling an already-run or already-cancelled event is a no-op. *)

val foreign_seq_base : int
(** Local events take sequence numbers counting up from 0; keys at or
    above this base are reserved for {!schedule_foreign}. *)

val schedule_foreign : t -> time:Time.t -> seq:int -> (unit -> unit) -> unit
(** Schedule with an explicit sequence key instead of the engine's own
    counter — the shard-merge entry point: events arriving from another
    shard carry a key that is a deterministic function of their origin,
    so the heap order (hence the execution) is independent of the domain
    schedule that delivered them. [seq] must be at least
    {!foreign_seq_base} (so foreign arrivals never interleave local
    events of the same instant) and [time] must not be in the past. *)

val next_time : t -> Time.t
(** Time of the earliest queued event (cancelled ones included), or
    [max_int] when the queue is empty — the engine-side input to a
    conservative shard's time promise. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Drain the event queue. [until] stops the clock at that time (events
    scheduled later remain queued); without it, a run that drains the
    queue leaves the clock at the later of its last event and the latest
    {!reserve}d time. [max_events] guards against runaway simulations. *)

val pending : t -> int
(** Events still queued (including cancelled ones not yet skipped). *)

val executed : t -> int
(** Cumulative count of callbacks actually run (cancelled events are
    skipped, not counted). At a deterministic simulated-time boundary
    this is a pure function of the simulation — the load signal the
    shard re-balancer packs workers by. *)
