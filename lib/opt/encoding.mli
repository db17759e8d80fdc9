(** On-the-wire data encodings (the back-end half of the paper's type
    chain: encoded type <-> MINT <-> PRES <-> CAST).

    An encoding fixes everything MINT deliberately leaves open: sizes,
    alignment, byte order, length-prefix format, padding, and whether
    items carry Mach-style type descriptors.  The first four encodings
    correspond to the paper's four back ends; [msgpack] and [cbor] are
    self-describing formats whose scalar widths depend on the value —
    they carry a {!varcodec} and classify their atoms {!Var}. *)

type atom_kind =
  | Kbool
  | Kchar
  | Kint of { bits : int; signed : bool }
  | Kfloat of { bits : int }

type layout = { size : int; align : int }

type size_class = Fixed of int | Var of { worst : int }
(** How many wire bytes an atom occupies: a static size (every fixed
    encoding, and var-encoding floats: one tag byte plus the IEEE
    payload), or a value-dependent width bounded by [worst] — the
    compiler reserves [worst] and the emit advances by the actual. *)

type lenkind = Lstr | Lbin | Larr
(** The three length-header families of the self-describing formats
    (msgpack fixstr/str8.. vs bin8.. vs fixarray/array16..; CBOR major
    types 3, 2, 4).  Fixed per call site: strings use [Lstr], byte
    sequences [Lbin], element counts (arrays, sequences, options)
    [Larr]. *)

exception Var_error of string
(** Malformed variable-header input (wrong tag family, non-minimal
    width, out-of-range value).  Truncation raises
    {!Mbuf.Short_buffer} instead, exactly as the fixed readers do.
    Executors translate this to [Codec.Decode_error]. *)

type varcodec = Vmsgpack | Vcbor
(** The head format of a self-describing encoding.  Each format has one
    emitter and one parser (the [var_*] functions below); constant
    images are produced by running that emitter at compile time.

    {b Value widths.}  Every head whose value fits a native [int] —
    bools, chars, integers of up to 32 bits and all lengths — is written
    from and parsed into an [int], with no boxing and no intermediate
    string: the tag byte and its big-endian payload go straight into the
    writer's reserved bytes ([Mbuf.set_u8], [set_i16_be], [set_i32_be])
    and come back out of the reader the same way.  Only 64-bit integer
    fields use [int64] ({!var_put_int64}, {!var_get_int64}), whose 8-byte
    payloads a native [int] cannot always hold. *)

type t = {
  name : string;
  big_endian : bool;
  atom : atom_kind -> layout;
  len_prefix : layout;  (** variable-length array count *)
  pad_unit : int;
      (** packed byte runs (strings, char/octet arrays) are padded to a
          multiple of this (XDR: 4, CDR: 1) *)
  string_nul : bool;
      (** CDR strings include the terminating NUL in the counted bytes *)
  typed_headers : bool;
      (** Mach 3 typed messages: a 4-byte type descriptor precedes every
          data item *)
  max_align : int;
  granularity : int;
      (** every layout advances the position by a multiple of this (XDR:
          4, others: 1); the plan compiler's static-position tracking
          survives loops and unions exactly at this granularity *)
  var : varcodec option;
      (** value-dependent header hooks; [None] for the fixed formats *)
}

val cdr : t
(** CORBA CDR as used by IIOP: natural sizes and alignment, big-endian
    (we always generate big-endian messages, like a SPARC sender). *)

val xdr : t
(** ONC XDR (RFC 1832): every scalar occupies a multiple of 4 bytes,
    big-endian; opaque/string data padded to 4. *)

val mach3 : t
(** Mach 3 typed messages: little-endian host order with a descriptor
    word before each item. *)

val fluke : t
(** Fluke kernel IPC: packed little-endian words, no descriptors — the
    lean format whose small messages travel in registers. *)

val msgpack : t
(** MessagePack: positive/negative fixints, uint8..64 / int8..64,
    fixstr/str8..32, bin8..32, fixarray/array16/32; multi-byte fields
    big-endian; minimal-width (canonical) forms only. *)

val cbor : t
(** CBOR (RFC 8949) with preferred serialization: 3-bit major type plus
    5-bit additional info, arguments 1/2/4/8 bytes big-endian, minimal
    width enforced on both sides. *)

val all : t list
val by_name : string -> t option

val atom_of_mint : Mint.def -> atom_kind option
(** The atom for a MINT leaf ([None] for aggregates and [Void]). *)

val canon_int : bits:int -> signed:bool -> int64 -> int64
(** Reduce a constant to its wire value at the declared width: keep the
    low [bits], then sign- or zero-extend — the same round trip a
    fixed-size store-then-load performs. *)

(** {2 Variable-header emit and parse}

    The emitters write the canonical minimal-width head at the writer's
    cursor and advance past it.  With [check:true] they reserve the
    head's actual width first; with [check:false] the caller must have
    reserved the atom's worst case ({!var_size}).  The parsers check
    that the whole head is in bounds ([Mbuf.Short_buffer] otherwise),
    reject non-minimal forms with {!Var_error} so every decoder engine
    accepts exactly the same inputs, and advance past the head. *)

val var_size : atom_kind -> size_class
(** The worst-case head width of an atom under msgpack and CBOR (both
    formats share it); floats are [Fixed]: a tag byte and the IEEE
    payload. *)

val var_float_tag : varcodec -> bits:int -> int
(** The canonical tag byte before a big-endian IEEE payload. *)

val var_put_int : varcodec -> check:bool -> signed:bool -> Mbuf.t -> int -> unit
(** An integer head from a native int.  The value is written as it
    stands (callers truncate to the field width first); an unsigned
    field's negative value is the unsigned 64-bit integer it extends
    to. *)

val var_put_int64 :
  varcodec -> check:bool -> signed:bool -> Mbuf.t -> int64 -> unit
(** The same head from an [int64]; the bytes equal {!var_put_int}'s
    whenever the value fits a native int. *)

val var_put_bool : varcodec -> check:bool -> Mbuf.t -> bool -> unit
val var_put_float : varcodec -> check:bool -> bits:int -> Mbuf.t -> float -> unit
val var_put_len : varcodec -> check:bool -> Mbuf.t -> lenkind -> int -> unit

val var_get_int : varcodec -> atom_kind -> Mbuf.reader -> int
(** An integer head for a [Kchar] or a [Kint] field of up to 32 bits,
    checked against the field's range ([Var_error] "invalid character
    N" or "integer N out of range for B-bit field").  A 64-bit [Kint]
    is parsed without a range check as long as the head has at most a
    4-byte payload; use {!var_get_int64} for those fields. *)

val var_get_int64 : varcodec -> signed:bool -> Mbuf.reader -> int64
(** An integer head for a 64-bit field. *)

val var_get_bool : varcodec -> Mbuf.reader -> bool
val var_get_float : varcodec -> bits:int -> Mbuf.reader -> float

val var_get_len : varcodec -> Mbuf.reader -> lenkind -> int
(** Rejects lengths that do not fit in a 31-bit int. *)

val var_const_image : varcodec -> atom_kind -> int64 -> string
(** The exact bytes the emitters write for a compile-time constant of
    the given kind (integers truncated to the declared width first) —
    what reservation narrowing folds into a fixed chunk. *)

val var_len_image : varcodec -> lenkind -> int -> string

val min_width : t -> Mint.t -> Mint.idx -> int
(** The fewest wire bytes any value of a MINT type occupies under an
    encoding: an atom its encoded size (one head byte under msgpack and
    CBOR, tag plus payload for their floats), a struct the sum of its
    fields, a union its discriminator plus its cheapest arm, an array
    its count prefix (when variable) plus [min_len] elements.  A lower
    bound — alignment, padding and descriptors only add — so a decoder
    can admit an element count against it before allocating anything
    for the elements ({!Codec.admit_count}). *)
