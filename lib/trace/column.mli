(** Append-only growable arrays for the trace readers and builders, which
    learn their length only at the end of the input. Growing never
    copies; {!to_array} copies each value once. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit

val last : 'a t -> 'a
(** The most recently pushed value. Raises [Invalid_argument] on an empty
    column. *)

val to_array : 'a t -> 'a array
(** A fresh exact-size array of the values, in push order. *)
