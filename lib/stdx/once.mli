(** A value computed on first use and shared by every later caller,
    safe to force from several domains at once.

    [Lazy] is not: forcing one suspension from two {!Pool} domains
    raises [CamlinternalLazy.Undefined] (or races). A [once] cell
    instead publishes its value with an atomic compare-and-set. Two
    callers that arrive before anything is published may both run the
    builder; the first to publish wins, and every caller, the loser
    included, gets the winner's value. So the builder must be pure up
    to the identity of its result (a table built from immutable
    parameters, say): a lost build is garbage, never observable. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** [make build] is a cell that will hold [build ()]. Nothing is built
    yet. *)

val get : 'a t -> 'a
(** The cell's value: built by this call if no caller has published one
    yet, otherwise the published value. Every call on one cell returns
    the same (physically equal) value. Exceptions from [build] propagate
    and leave the cell empty. *)
