(** Node sequences: the currency passed between XPath axis steps.

    XPath semantics require step results to be duplicate-free and sorted in
    document order [2].  Document order is preorder rank order, so a node
    sequence is represented as a strictly increasing array of preorder
    ranks.  The constructors enforce the invariant. *)

type t

val empty : t

val singleton : int -> t

(** [of_sorted_array a] adopts [a].
    @raise Invalid_argument unless strictly increasing and non-negative. *)
val of_sorted_array : int array -> t

(** [of_range ~lo ~hi] is the consecutive run [lo; lo+1; ...; hi] — the
    shape a comparison-free copy phase emits; empty when [hi < lo].
    @raise Invalid_argument when [lo < 0] and the range is non-empty. *)
val of_range : lo:int -> hi:int -> t

(** [of_array a] adopts [a], sorting it and removing duplicates in place
    only when it is not already strictly increasing; callers must not
    use [a] afterwards.
    @raise Invalid_argument on a negative preorder rank. *)
val of_array : int array -> t

(** [of_unsorted l] sorts and removes duplicates. *)
val of_unsorted : int list -> t

val of_list : int list -> t
(** Alias of {!of_unsorted}. *)

val length : t -> int

val is_empty : t -> bool

(** [get s i] is the [i]-th preorder rank in document order. *)
val get : t -> int -> int

val first : t -> int option

val last : t -> int option

(** Binary-search membership. *)
val mem : t -> int -> bool

val to_array : t -> int array

(** The backing array — callers must not mutate it. *)
val unsafe_array : t -> int array

val to_list : t -> int list

val iter : (int -> unit) -> t -> unit

val fold_left : ('a -> int -> 'a) -> 'a -> t -> 'a

(** [filter p s] keeps the elements satisfying [p], calling [p] exactly
    once per element, in document order. *)
val filter : (int -> bool) -> t -> t

(** Sorted merge without duplicates. *)
val union : t -> t -> t

(** Sorted intersection. *)
val inter : t -> t -> t

(** Elements of the first sequence not in the second. *)
val diff : t -> t -> t

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
