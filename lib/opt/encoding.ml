type atom_kind =
  | Kbool
  | Kchar
  | Kint of { bits : int; signed : bool }
  | Kfloat of { bits : int }

type layout = { size : int; align : int }

(* A self-describing format (msgpack, CBOR) sizes a scalar by its
   *value*: the compiler can only reserve the worst case and let the
   emit advance by the actual width.  [Fixed] atoms keep the static
   story (chunks, blits) intact. *)
type size_class = Fixed of int | Var of { worst : int }

(* Which length-header family a count belongs to.  The three families
   differ on the wire (msgpack fixstr vs bin8 vs fixarray; CBOR major
   types 3/2/4), so every call site fixes its kind statically. *)
type lenkind = Lstr | Lbin | Larr

exception Var_error of string

(* The head format of a self-describing encoding.  Each format has one
   emitter and one parser, below; everything else (constant images,
   the Value.t mapping in Codec) is built from those two. *)
type varcodec = Vmsgpack | Vcbor

type t = {
  name : string;
  big_endian : bool;
  atom : atom_kind -> layout;
  len_prefix : layout;
  pad_unit : int;
  string_nul : bool;
  typed_headers : bool;
  max_align : int;
  granularity : int;
  var : varcodec option;
}

let natural = function
  | Kbool -> { size = 1; align = 1 }
  | Kchar -> { size = 1; align = 1 }
  | Kint { bits; signed = _ } ->
      let n = bits / 8 in
      { size = n; align = n }
  | Kfloat { bits } ->
      let n = bits / 8 in
      { size = n; align = n }

(* XDR: every scalar occupies a 4-byte multiple; nothing needs more than
   4-byte alignment. *)
let xdr_layout = function
  | Kbool | Kchar -> { size = 4; align = 4 }
  | Kint { bits = 64; _ } | Kfloat { bits = 64 } -> { size = 8; align = 4 }
  | Kint _ | Kfloat _ -> { size = 4; align = 4 }

let cdr =
  {
    name = "cdr";
    big_endian = true;
    atom = natural;
    len_prefix = { size = 4; align = 4 };
    pad_unit = 1;
    string_nul = true;
    typed_headers = false;
    max_align = 8;
    granularity = 1;
    var = None;
  }

let xdr =
  {
    name = "xdr";
    big_endian = true;
    atom = xdr_layout;
    len_prefix = { size = 4; align = 4 };
    pad_unit = 4;
    string_nul = false;
    typed_headers = false;
    max_align = 4;
    granularity = 4;
    var = None;
  }

let mach3 =
  {
    name = "mach3";
    big_endian = false;
    atom = natural;
    len_prefix = { size = 4; align = 4 };
    pad_unit = 4;
    string_nul = false;
    typed_headers = true;
    max_align = 8;
    granularity = 1;
    var = None;
  }

let fluke =
  {
    name = "fluke";
    big_endian = false;
    atom = natural;
    len_prefix = { size = 4; align = 4 };
    pad_unit = 1;
    string_nul = false;
    typed_headers = false;
    max_align = 8;
    granularity = 1;
    var = None;
  }

(* ------------------------------------------------------------------ *)
(* Variable-header codecs                                               *)
(* ------------------------------------------------------------------ *)

(* canonicalize a constant to the wire semantics of its declared width:
   keep the low [bits], then sign- or zero-extend (what a fixed-size
   encoding's store-then-load round trip does) *)
let canon_int ~bits ~signed v =
  if bits >= 64 then v
  else
    let shift = 64 - bits in
    let low = Int64.shift_right_logical (Int64.shift_left v shift) shift in
    if signed then Int64.shift_right (Int64.shift_left v shift) shift else low

let var_size = function
  | Kbool -> Var { worst = 1 }
  | Kchar -> Var { worst = 2 }
  | Kint { bits = 8; _ } -> Var { worst = 2 }
  | Kint { bits = 16; _ } -> Var { worst = 3 }
  | Kint { bits = 32; _ } -> Var { worst = 5 }
  | Kint _ -> Var { worst = 9 }
  | Kfloat { bits } -> Fixed (1 + (bits / 8))

(* -- emit: a tag byte and its big-endian payload, stored in place ---- *)

(* [check] reserves the head's actual width first; without it the
   caller has reserved the atom's worst case *)
let head0 ~check b t =
  if check then Mbuf.ensure b 1;
  Mbuf.set_u8 b 0 t;
  Mbuf.advance b 1

let head8 ~check b t v =
  if check then Mbuf.ensure b 2;
  Mbuf.set_u8 b 0 t;
  Mbuf.set_u8 b 1 v;
  Mbuf.advance b 2

let head16 ~check b t v =
  if check then Mbuf.ensure b 3;
  Mbuf.set_u8 b 0 t;
  Mbuf.set_i16_be b 1 (v land 0xffff);
  Mbuf.advance b 3

let head32 ~check b t v =
  if check then Mbuf.ensure b 5;
  Mbuf.set_u8 b 0 t;
  Mbuf.set_i32_be b 1 v;
  Mbuf.advance b 5

let head64 ~check b t v =
  if check then Mbuf.ensure b 9;
  Mbuf.set_u8 b 0 t;
  Mbuf.set_i64_be b 1 v;
  Mbuf.advance b 9

(* whether an int64 survives the trip through a native int; outside
   that range every head needs its 8-byte payload *)
let fits_int v =
  Int64.compare v (Int64.of_int min_int) >= 0
  && Int64.compare v (Int64.of_int max_int) <= 0

(* -- parse: tag and payload read in place into a native int ---------- *)

let verr fmt = Printf.ksprintf (fun m -> raise (Var_error m)) fmt

(* the 1-, 2- and 4-byte big-endian payloads after a tag, zero-extended
   (the 8-byte one as an int64); each checks that tag and payload are in
   bounds *)
let arg8 r =
  Mbuf.need r 2;
  Mbuf.get_u8 r 1

let arg16 r =
  Mbuf.need r 3;
  Mbuf.get_i16_be r 1

let arg32 r =
  Mbuf.need r 5;
  Mbuf.get_i32_be r 1 land 0xffff_ffff

let arg64 r =
  Mbuf.need r 9;
  Mbuf.get_i64_be r 1

let sext bits v =
  let s = Sys.int_size - bits in
  (v lsl s) asr s

let is_signed = function Kint { signed; _ } -> signed | Kbool | Kchar | Kfloat _ -> false
let k_i64 = Kint { bits = 64; signed = true }
let k_u64 = Kint { bits = 64; signed = false }

let range_error kind v =
  match kind with
  | Kchar -> verr "invalid character %Ld" v
  | Kint { bits; _ } -> verr "integer %Ld out of range for %d-bit field" v bits
  | Kbool | Kfloat _ -> invalid_arg "Encoding: no integer range"

(* a parsed head value against the field's declared width; the parsers
   reject negative values for unsigned fields before they get here *)
let in_field kind v =
  (match kind with
  | Kint { bits; signed } when bits < 64 ->
      let ok =
        if signed then
          let h = 1 lsl (bits - 1) in
          v >= -h && v < h
        else v lsr bits = 0
      in
      if not ok then range_error kind (Int64.of_int v)
  | Kchar -> if v lsr 8 <> 0 then range_error kind (Int64.of_int v)
  | Kint _ | Kbool | Kfloat _ -> ());
  v

(* ---------------------------- msgpack ----------------------------- *)

let mp_put_int ~check ~signed b v =
  if v >= 0 then
    if v <= 0x7f then head0 ~check b v
    else if v <= 0xff then head8 ~check b 0xcc v
    else if v <= 0xffff then head16 ~check b 0xcd v
    else if v <= 0xffff_ffff then head32 ~check b 0xce v
    else head64 ~check b 0xcf (Int64.of_int v)
  else if not signed then head64 ~check b 0xcf (Int64.of_int v)
  else if v >= -32 then head0 ~check b (v land 0xff)
  else if v >= -128 then head8 ~check b 0xd0 v
  else if v >= -32768 then head16 ~check b 0xd1 v
  else if v >= -0x8000_0000 then head32 ~check b 0xd2 v
  else head64 ~check b 0xd3 (Int64.of_int v)

let mp_put_int64 ~check ~signed b v =
  if fits_int v then mp_put_int ~check ~signed b (Int64.to_int v)
  else
    head64 ~check b
      (if signed && Int64.compare v 0L < 0 then 0xd3 else 0xcf)
      v

let mp_put_len ~check b kind n =
  match kind with
  | Lstr ->
      if n <= 31 then head0 ~check b (0xa0 lor n)
      else if n <= 0xff then head8 ~check b 0xd9 n
      else if n <= 0xffff then head16 ~check b 0xda n
      else head32 ~check b 0xdb n
  | Lbin ->
      if n <= 0xff then head8 ~check b 0xc4 n
      else if n <= 0xffff then head16 ~check b 0xc5 n
      else head32 ~check b 0xc6 n
  | Larr ->
      if n <= 15 then head0 ~check b (0x90 lor n)
      else if n <= 0xffff then head16 ~check b 0xdc n
      else head32 ~check b 0xdd n

let mp_negative () = verr "msgpack: negative integer for unsigned field"

(* uint64 / int64 heads: the 8-byte payloads, parsed as int64 *)
let mp_get_wide ~signed r t =
  if t = 0xcf then begin
    let v = arg64 r in
    if Int64.unsigned_compare v 0x1_0000_0000L < 0 then
      verr "msgpack: non-minimal uint64";
    if signed && Int64.compare v 0L < 0 then
      verr "msgpack: integer out of range";
    Mbuf.skip r 9;
    v
  end
  else begin
    if not signed then mp_negative ();
    let v = arg64 r in
    if Int64.compare v (-2147483649L) > 0 then
      verr "msgpack: non-minimal int64";
    Mbuf.skip r 9;
    v
  end

let mp_get_int kind r =
  let signed = is_signed kind in
  Mbuf.need r 1;
  let t = Mbuf.get_u8 r 0 in
  if t <= 0x7f then begin
    Mbuf.skip r 1;
    in_field kind t
  end
  else if t >= 0xe0 then begin
    if not signed then mp_negative ();
    Mbuf.skip r 1;
    in_field kind (t - 256)
  end
  else
    match t with
    | 0xcc ->
        let v = arg8 r in
        if v < 0x80 then verr "msgpack: non-minimal uint8";
        Mbuf.skip r 2;
        in_field kind v
    | 0xcd ->
        let v = arg16 r in
        if v < 0x100 then verr "msgpack: non-minimal uint16";
        Mbuf.skip r 3;
        in_field kind v
    | 0xce ->
        let v = arg32 r in
        if v < 0x10000 then verr "msgpack: non-minimal uint32";
        Mbuf.skip r 5;
        in_field kind v
    | 0xd0 ->
        if not signed then mp_negative ();
        let v = sext 8 (arg8 r) in
        if v > -33 then verr "msgpack: non-minimal int8";
        Mbuf.skip r 2;
        in_field kind v
    | 0xd1 ->
        if not signed then mp_negative ();
        let v = sext 16 (arg16 r) in
        if v > -129 then verr "msgpack: non-minimal int16";
        Mbuf.skip r 3;
        in_field kind v
    | 0xd2 ->
        if not signed then mp_negative ();
        let v = sext 32 (arg32 r) in
        if v > -32769 then verr "msgpack: non-minimal int32";
        Mbuf.skip r 5;
        in_field kind v
    | 0xcf | 0xd3 -> range_error kind (mp_get_wide ~signed r t)
    | _ -> verr "msgpack: expected integer, got tag 0x%02x" t

let mp_get_int64 ~signed r =
  Mbuf.need r 1;
  let t = Mbuf.get_u8 r 0 in
  if t = 0xcf || t = 0xd3 then mp_get_wide ~signed r t
  else Int64.of_int (mp_get_int (if signed then k_i64 else k_u64) r)

let mp_get_bool r =
  Mbuf.need r 1;
  match Mbuf.get_u8 r 0 with
  | 0xc2 ->
      Mbuf.skip r 1;
      false
  | 0xc3 ->
      Mbuf.skip r 1;
      true
  | t -> verr "msgpack: expected bool, got tag 0x%02x" t

(* a length whose [width]-byte payload has passed its minimality check *)
let mp_len_fin r width n =
  if n > 0x7fff_ffff then verr "msgpack: length %d out of range" n;
  Mbuf.skip r (1 + width);
  n

let mp_get_len r kind =
  Mbuf.need r 1;
  let t = Mbuf.get_u8 r 0 in
  match kind with
  | Lstr -> (
      if t land 0xe0 = 0xa0 then begin
        Mbuf.skip r 1;
        t land 0x1f
      end
      else
        match t with
        | 0xd9 ->
            let n = arg8 r in
            if n < 32 then verr "msgpack: non-minimal str8 length";
            mp_len_fin r 1 n
        | 0xda ->
            let n = arg16 r in
            if n < 0x100 then verr "msgpack: non-minimal str16 length";
            mp_len_fin r 2 n
        | 0xdb ->
            let n = arg32 r in
            if n < 0x10000 then verr "msgpack: non-minimal str32 length";
            mp_len_fin r 4 n
        | _ -> verr "msgpack: expected string, got tag 0x%02x" t)
  | Lbin -> (
      match t with
      | 0xc4 -> mp_len_fin r 1 (arg8 r)
      | 0xc5 ->
          let n = arg16 r in
          if n < 0x100 then verr "msgpack: non-minimal bin16 length";
          mp_len_fin r 2 n
      | 0xc6 ->
          let n = arg32 r in
          if n < 0x10000 then verr "msgpack: non-minimal bin32 length";
          mp_len_fin r 4 n
      | _ -> verr "msgpack: expected binary, got tag 0x%02x" t)
  | Larr -> (
      if t land 0xf0 = 0x90 then begin
        Mbuf.skip r 1;
        t land 0x0f
      end
      else
        match t with
        | 0xdc ->
            let n = arg16 r in
            if n < 16 then verr "msgpack: non-minimal array16 length";
            mp_len_fin r 2 n
        | 0xdd ->
            let n = arg32 r in
            if n < 0x10000 then verr "msgpack: non-minimal array32 length";
            mp_len_fin r 4 n
        | _ -> verr "msgpack: expected array, got tag 0x%02x" t)

(* ----------------------------- CBOR ------------------------------- *)

(* RFC 8949 preferred (minimal-width) heads: 3-bit major type, 5-bit
   additional info, then a 1/2/4/8-byte big-endian argument.  A
   negative [n] stands for the unsigned 64-bit argument it extends to. *)
let cbor_put_head ~check b major n =
  let mt = major lsl 5 in
  if n < 0 || n > 0xffff_ffff then head64 ~check b (mt lor 27) (Int64.of_int n)
  else if n <= 23 then head0 ~check b (mt lor n)
  else if n <= 0xff then head8 ~check b (mt lor 24) n
  else if n <= 0xffff then head16 ~check b (mt lor 25) n
  else head32 ~check b (mt lor 26) n

let cbor_put_int ~check ~signed b v =
  if signed && v < 0 then cbor_put_head ~check b 1 (lnot v)
  else cbor_put_head ~check b 0 v

let cbor_put_int64 ~check ~signed b v =
  if fits_int v then cbor_put_int ~check ~signed b (Int64.to_int v)
  else if signed && Int64.compare v 0L < 0 then
    head64 ~check b 0x3b (Int64.lognot v)
  else head64 ~check b 0x1b v

let cbor_len_major = function Lbin -> 2 | Lstr -> 3 | Larr -> 4

let cbor_nonminimal t = verr "cbor: non-minimal argument in head 0x%02x" t

(* the argument of a head whose additional info is not 27, with the
   cursor advanced past it; rejects non-minimal arguments and
   indefinite lengths *)
let cbor_arg r t =
  match t land 0x1f with
  | info when info <= 23 ->
      Mbuf.skip r 1;
      info
  | 24 ->
      let n = arg8 r in
      if n < 24 then cbor_nonminimal t;
      Mbuf.skip r 2;
      n
  | 25 ->
      let n = arg16 r in
      if n < 0x100 then cbor_nonminimal t;
      Mbuf.skip r 3;
      n
  | 26 ->
      let n = arg32 r in
      if n < 0x10000 then cbor_nonminimal t;
      Mbuf.skip r 5;
      n
  | _ -> verr "cbor: malformed head 0x%02x" t

(* additional info 27: the 8-byte argument, as an unsigned int64 *)
let cbor_arg64 r t =
  let n = arg64 r in
  if Int64.unsigned_compare n 0x1_0000_0000L < 0 then cbor_nonminimal t;
  Mbuf.skip r 9;
  n

let cbor_negative () = verr "cbor: negative integer for unsigned field"

let cbor_not_int major = verr "cbor: expected integer, got major type %d" major

let cbor_get_wide ~signed r t =
  let n = cbor_arg64 r t in
  match t lsr 5 with
  | 0 ->
      if signed && Int64.compare n 0L < 0 then verr "cbor: integer out of range";
      n
  | 1 ->
      if not signed then cbor_negative ();
      if Int64.compare n 0L < 0 then verr "cbor: integer out of range";
      Int64.lognot n
  | major -> cbor_not_int major

let cbor_get_int kind r =
  let signed = is_signed kind in
  Mbuf.need r 1;
  let t = Mbuf.get_u8 r 0 in
  if t land 0x1f = 27 then range_error kind (cbor_get_wide ~signed r t)
  else
    let n = cbor_arg r t in
    match t lsr 5 with
    | 0 -> in_field kind n
    | 1 ->
        if not signed then cbor_negative ();
        in_field kind (lnot n)
    | major -> cbor_not_int major

let cbor_get_int64 ~signed r =
  Mbuf.need r 1;
  let t = Mbuf.get_u8 r 0 in
  if t land 0x1f = 27 then cbor_get_wide ~signed r t
  else Int64.of_int (cbor_get_int (if signed then k_i64 else k_u64) r)

let cbor_get_bool r =
  Mbuf.need r 1;
  match Mbuf.get_u8 r 0 with
  | 0xf4 ->
      Mbuf.skip r 1;
      false
  | 0xf5 ->
      Mbuf.skip r 1;
      true
  | t -> verr "cbor: expected bool, got tag 0x%02x" t

let cbor_check_major t want =
  if t lsr 5 <> want then
    verr "cbor: expected major type %d, got %d" want (t lsr 5)

let cbor_get_len r kind =
  let want = cbor_len_major kind in
  Mbuf.need r 1;
  let t = Mbuf.get_u8 r 0 in
  if t land 0x1f = 27 then begin
    let n = cbor_arg64 r t in
    cbor_check_major t want;
    verr "cbor: length %Lu out of range" n
  end
  else
    let n = cbor_arg r t in
    cbor_check_major t want;
    if n > 0x7fff_ffff then verr "cbor: length %d out of range" n;
    n

(* ------------------------- per-format dispatch -------------------- *)

let var_float_tag vc ~bits =
  match vc with
  | Vmsgpack -> if bits = 32 then 0xca else 0xcb
  | Vcbor -> if bits = 32 then 0xfa else 0xfb

let var_put_int vc ~check ~signed b v =
  match vc with
  | Vmsgpack -> mp_put_int ~check ~signed b v
  | Vcbor -> cbor_put_int ~check ~signed b v

let var_put_int64 vc ~check ~signed b v =
  match vc with
  | Vmsgpack -> mp_put_int64 ~check ~signed b v
  | Vcbor -> cbor_put_int64 ~check ~signed b v

let var_put_bool vc ~check b v =
  match vc with
  | Vmsgpack -> head0 ~check b (if v then 0xc3 else 0xc2)
  | Vcbor -> head0 ~check b (if v then 0xf5 else 0xf4)

let var_put_float vc ~check ~bits b f =
  let n = bits / 8 in
  if check then Mbuf.ensure b (1 + n);
  Mbuf.set_u8 b 0 (var_float_tag vc ~bits);
  if bits = 32 then Mbuf.set_f32_be b 1 f else Mbuf.set_f64_be b 1 f;
  Mbuf.advance b (1 + n)

let var_put_len vc ~check b kind n =
  match vc with
  | Vmsgpack -> mp_put_len ~check b kind n
  | Vcbor -> cbor_put_head ~check b (cbor_len_major kind) n

let var_get_int vc kind r =
  match vc with
  | Vmsgpack -> mp_get_int kind r
  | Vcbor -> cbor_get_int kind r

let var_get_int64 vc ~signed r =
  match vc with
  | Vmsgpack -> mp_get_int64 ~signed r
  | Vcbor -> cbor_get_int64 ~signed r

let var_get_bool vc r =
  match vc with Vmsgpack -> mp_get_bool r | Vcbor -> cbor_get_bool r

let var_get_float vc ~bits r =
  let n = bits / 8 in
  let tag = var_float_tag vc ~bits in
  Mbuf.need r 1;
  let t = Mbuf.get_u8 r 0 in
  if t <> tag then
    verr "expected %d-bit float tag 0x%02x, got 0x%02x" bits tag t;
  Mbuf.need r (1 + n);
  let f = if bits = 32 then Mbuf.get_f32_be r 1 else Mbuf.get_f64_be r 1 in
  Mbuf.skip r (1 + n);
  f

let var_get_len vc r kind =
  match vc with
  | Vmsgpack -> mp_get_len r kind
  | Vcbor -> cbor_get_len r kind

(* Compile-time images run the same emitters into a scratch buffer, so
   a constant folded into a chunk is byte-for-byte what the runtime
   emit would have written. *)
let image emit =
  let b = Mbuf.create 16 in
  emit b;
  let bytes, n = Mbuf.view b in
  Bytes.sub_string bytes 0 n

let var_const_image vc kind v =
  match kind with
  | Kbool -> image (fun b -> var_put_bool vc ~check:true b (Int64.compare v 0L <> 0))
  | Kchar ->
      image (fun b ->
          var_put_int vc ~check:true ~signed:false b
            (Int64.to_int (Int64.logand v 0xffL)))
  | Kint { bits; signed } ->
      image (fun b ->
          var_put_int64 vc ~check:true ~signed b (canon_int ~bits ~signed v))
  | Kfloat _ -> invalid_arg "Encoding: float constants have no var image"

let var_len_image vc kind n = image (fun b -> var_put_len vc ~check:true b kind n)

(* Both self-describing encodings are byte-granular: every alignment
   field is 1, so the plan compilers' congruence machinery is inert
   (no pads, no Align ops).  [len_prefix.size] is the worst-case length
   head, used only for conservative reservations. *)
let selfdesc name var =
  {
    name;
    big_endian = true;
    atom = (fun k -> { size = (natural k).size; align = 1 });
    len_prefix = { size = 5; align = 1 };
    pad_unit = 1;
    string_nul = false;
    typed_headers = false;
    max_align = 1;
    granularity = 1;
    var = Some var;
  }

let msgpack = selfdesc "msgpack" Vmsgpack
let cbor = selfdesc "cbor" Vcbor

let all = [ cdr; xdr; mach3; fluke; msgpack; cbor ]
let by_name n = List.find_opt (fun e -> e.name = n) all

let atom_of_mint (def : Mint.def) =
  match def with
  | Mint.Bool -> Some Kbool
  | Mint.Char8 -> Some Kchar
  | Mint.Int { bits; signed } -> Some (Kint { bits; signed })
  | Mint.Float { bits } -> Some (Kfloat { bits })
  | Mint.Void | Mint.Array _ | Mint.Struct _ | Mint.Union _ -> None

(* Lower bound on the wire size of any value of a MINT type.  Alignment,
   padding, NUL terminators and Mach descriptors only ever add bytes, so
   they are left out; a node reached again through a cycle counts 0, and
   a cut can only lower a bound, so memoizing under cuts stays sound. *)
let min_width enc mint root =
  let memo = Hashtbl.create 8 and visiting = Hashtbl.create 8 in
  let atom_width kind =
    match enc.var with
    | None -> (enc.atom kind).size
    | Some _ -> ( match var_size kind with Fixed n -> n | Var _ -> 1)
  in
  let rec go idx =
    match Hashtbl.find_opt memo idx with
    | Some w -> w
    | None when Hashtbl.mem visiting idx -> 0
    | None ->
        Hashtbl.add visiting idx ();
        let w =
          match Mint.get mint idx with
          | Mint.Void -> 0
          | (Mint.Bool | Mint.Char8 | Mint.Int _ | Mint.Float _) as def ->
              Option.fold ~none:0 ~some:atom_width (atom_of_mint def)
          | Mint.Array { elem; min_len; max_len } ->
              let prefix =
                if max_len = Some min_len then 0
                else if enc.var <> None then 1
                else enc.len_prefix.size
              in
              (* byte elements travel packed, one byte each *)
              let per =
                match Mint.get mint elem with
                | Mint.Char8 | Mint.Int { bits = 8; _ } -> 1
                | _ -> go elem
              in
              prefix + (min_len * per)
          | Mint.Struct fields ->
              List.fold_left (fun acc (_, f) -> acc + go f) 0 fields
          | Mint.Union { discrim; cases; default } -> (
              let arms =
                List.map (fun (c : Mint.case) -> go c.Mint.c_body) cases
                @ Option.fold ~none:[] ~some:(fun d -> [ go d ]) default
              in
              go discrim
              + match arms with [] -> 0 | a :: rest -> List.fold_left min a rest)
        in
        Hashtbl.remove visiting idx;
        Hashtbl.replace memo idx w;
        w
  in
  go root
