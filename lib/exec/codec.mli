(** Atom-level wire codec shared by the three stub engines.

    These helpers fix, once, how each {!Mplan.atom} maps runtime values
    to bytes under an encoding (endianness, widened XDR scalars, sign
    handling), so that the optimized, rpcgen-style and interpretive
    engines produce byte-identical messages — the property the central
    qcheck test asserts. *)

exception Decode_error of string
(** Raised for malformed wire data: invalid booleans/characters,
    out-of-range lengths, unknown discriminators. *)

val write_at : Mbuf.t -> be:bool -> int -> Mplan.atom -> Value.t -> unit
(** Unchecked store at a chunk offset ([Mbuf.ensure] already done). *)

val write_const_at : Mbuf.t -> be:bool -> int -> Mplan.atom -> int64 -> unit

val write_stream : Mbuf.t -> be:bool -> Mplan.atom -> Value.t -> unit
(** Checked, aligned append — the per-datum shape of traditional
    stubs. *)

val read_stream : Mbuf.reader -> be:bool -> Mplan.atom -> Value.t
(** Aligned, checked read; sign-extends or zero-extends per the atom's
    signedness and rejects malformed booleans. *)

val read_at : Mbuf.reader -> be:bool -> int -> Mplan.atom -> Value.t
(** Unchecked read at an offset ([Mbuf.need] already done). *)

val read_i32s :
  be:bool -> signed:bool -> bits:int -> Mbuf.reader -> int -> int array
(** [read_i32s ~be ~signed ~bits r n]: [n] consecutive 4-byte integer
    slots of a [bits]-wide kind, read after one alignment and one bounds
    check, each extended exactly as {!read_at} extends it (so a signed
    16-bit kind sign-extends from bit 15). *)

val as_int : Value.t -> int
val as_int64 : Value.t -> int64

(** Length/padding helpers shared by every decode engine (plan-compiled,
    rpcgen-style, interpretive) and the forward relay, so the wire
    conventions for counted data live in exactly one place. *)

val read_len : Mbuf.reader -> be:bool -> align:int -> int
(** Aligned 32-bit count read; rejects negative counts with
    {!Decode_error}. *)

val check_bounds :
  what:string -> int -> min_len:int -> max_len:int option -> unit
(** Enforce a decoded count against the type's declared bounds. *)

val admit_count : Mbuf.reader -> width:int -> int -> unit
(** [admit_count r ~width n] admits a wire count of [n] elements, each at
    least [width] bytes on the wire, before anything is allocated for
    them: it raises [Mbuf.Short_buffer] when fewer than [n * width] bytes
    remain, so a hostile count costs no more than the bytes it arrived
    in.  [width] is the element type's {!Encoding.min_width}: the atom
    size on fixed encodings, 1 for a msgpack or CBOR scalar (every item
    has at least a head byte), the sum over a struct's fields;
    [width = 0] admits any count. *)

val skip_pad : Mbuf.reader -> pad_unit:int -> int -> unit
(** Skip the trailing padding of an [n]-byte variable-length run up to
    the encoding's pad unit. *)

(** Value-dependent wire formats (msgpack, CBOR).  One mapping from
    {!Value.t} to the encoding's emitters and parsers, shared by every
    engine, so differential parity across engines holds by construction.
    Heads are written in place and parsed without allocating: bools,
    chars, integers of up to 32 bits and every length travel as native
    [int]s; only 64-bit integer fields go through [int64] (see
    {!Encoding.varcodec}).  The readers translate {!Encoding.Var_error}
    into {!Decode_error}; truncation surfaces as [Mbuf.Short_buffer]
    like the fixed paths. *)

val write_var :
  Encoding.varcodec -> check:bool -> Encoding.atom_kind -> Mbuf.t ->
  Value.t -> unit
(** Emit one scalar in canonical minimal-width form.  Integers are
    truncated to the declared field width first (the round trip a
    fixed-size store performs).  [check:false] requires the caller to
    have reserved the atom's worst case. *)

val write_var_int :
  Encoding.varcodec -> check:bool -> Encoding.atom_kind -> Mbuf.t -> int ->
  unit
(** [write_var_int vc ~check kind buf n] writes exactly what
    [write_var vc ~check kind buf (Value.Vint n)] writes, without the
    [Value.t]: the element loop of an int-array encode. *)

val read_var :
  Encoding.varcodec -> Encoding.atom_kind -> Mbuf.reader -> Value.t
(** Checked parse of one scalar; rejects non-minimal encodings and
    values outside the declared field width, so every decoder engine
    accepts exactly the same inputs. *)

val read_var_ints :
  Encoding.varcodec -> Encoding.atom_kind -> Mbuf.reader -> int -> int array
(** [read_var_ints vc kind r n]: [n] consecutive integer heads of a
    [Kchar] or up-to-32-bit [Kint] kind, each parsed and checked as
    {!read_var} parses it, straight into an [int array]. *)

val write_vlen :
  Encoding.varcodec -> check:bool -> Encoding.lenkind -> Mbuf.t -> int ->
  unit

val read_vlen : Encoding.varcodec -> Encoding.lenkind -> Mbuf.reader -> int

val const_to_value : Mint.const -> Value.t
