exception Decode_error of string

let as_int (v : Value.t) =
  match v with
  | Value.Vint n -> n
  | Value.Vbool b -> if b then 1 else 0
  | Value.Vchar c -> Char.code c
  | Value.Vint64 n -> Int64.to_int n
  | Value.Vvoid | Value.Vfloat _ | Value.Vstring _ | Value.Vbytes _
  | Value.Vstring_view _ | Value.Vbytes_view _ | Value.Vint_array _
  | Value.Varray _ | Value.Vopt _ | Value.Vstruct _ | Value.Vunion _ ->
      invalid_arg "Codec.as_int"

let as_int64 (v : Value.t) =
  match v with
  | Value.Vint64 n -> n
  | Value.Vint n -> Int64.of_int n
  | _ -> invalid_arg "Codec.as_int64"

let as_float (v : Value.t) =
  match v with Value.Vfloat f -> f | _ -> invalid_arg "Codec.as_float"

let int_of_value (atom : Mplan.atom) v =
  match atom.Mplan.kind with
  | Encoding.Kbool -> ( match v with Value.Vbool b -> (if b then 1 else 0) | _ -> as_int v)
  | Encoding.Kchar -> ( match v with Value.Vchar c -> Char.code c | _ -> as_int v)
  | Encoding.Kint _ -> as_int v
  | Encoding.Kfloat _ -> invalid_arg "Codec.int_of_value: float"

(* -- stores ---------------------------------------------------------- *)

let write_at buf ~be off (atom : Mplan.atom) v =
  match (atom.Mplan.kind, atom.Mplan.size) with
  | Encoding.Kfloat { bits = 32 }, _ ->
      if be then Mbuf.set_f32_be buf off (as_float v)
      else Mbuf.set_f32_le buf off (as_float v)
  | Encoding.Kfloat _, _ ->
      if be then Mbuf.set_f64_be buf off (as_float v)
      else Mbuf.set_f64_le buf off (as_float v)
  | Encoding.Kint { bits = 64; _ }, _ ->
      if be then Mbuf.set_i64_be buf off (as_int64 v)
      else Mbuf.set_i64_le buf off (as_int64 v)
  | _, 1 -> Mbuf.set_u8 buf off (int_of_value atom v)
  | _, 2 ->
      if be then Mbuf.set_i16_be buf off (int_of_value atom v)
      else Mbuf.set_i16_le buf off (int_of_value atom v)
  | _, 4 ->
      if be then Mbuf.set_i32_be buf off (int_of_value atom v)
      else Mbuf.set_i32_le buf off (int_of_value atom v)
  | _, n -> invalid_arg (Printf.sprintf "Codec.write_at: size %d" n)

let write_const_at buf ~be off (atom : Mplan.atom) value =
  match (atom.Mplan.kind, atom.Mplan.size) with
  | Encoding.Kint { bits = 64; _ }, _ ->
      if be then Mbuf.set_i64_be buf off value else Mbuf.set_i64_le buf off value
  | _, 1 -> Mbuf.set_u8 buf off (Int64.to_int value)
  | _, 2 ->
      if be then Mbuf.set_i16_be buf off (Int64.to_int value)
      else Mbuf.set_i16_le buf off (Int64.to_int value)
  | _, 4 ->
      if be then Mbuf.set_i32_be buf off (Int64.to_int value)
      else Mbuf.set_i32_le buf off (Int64.to_int value)
  | _, n -> invalid_arg (Printf.sprintf "Codec.write_const_at: size %d" n)

let write_stream buf ~be (atom : Mplan.atom) v =
  Mbuf.align buf atom.Mplan.align;
  Mbuf.ensure buf atom.Mplan.size;
  write_at buf ~be 0 atom v;
  Mbuf.advance buf atom.Mplan.size

(* -- reads ----------------------------------------------------------- *)

let sign_extend n bits =
  let shift = Sys.int_size - bits in
  (n lsl shift) asr shift

let read_at r ~be off (atom : Mplan.atom) : Value.t =
  match atom.Mplan.kind with
  | Encoding.Kfloat { bits = 32 } ->
      Value.Vfloat (if be then Mbuf.get_f32_be r off else Mbuf.get_f32_le r off)
  | Encoding.Kfloat _ ->
      Value.Vfloat (if be then Mbuf.get_f64_be r off else Mbuf.get_f64_le r off)
  | Encoding.Kint { bits = 64; _ } ->
      Value.Vint64 (if be then Mbuf.get_i64_be r off else Mbuf.get_i64_le r off)
  | Encoding.Kbool -> (
      let n =
        match atom.Mplan.size with
        | 1 -> Mbuf.get_u8 r off
        | 4 -> (if be then Mbuf.get_i32_be r off else Mbuf.get_i32_le r off)
        | n -> invalid_arg (Printf.sprintf "Codec: bool size %d" n)
      in
      match n with
      | 0 -> Value.Vbool false
      | 1 -> Value.Vbool true
      | n -> raise (Decode_error (Printf.sprintf "invalid boolean %d" n)))
  | Encoding.Kchar ->
      let n =
        match atom.Mplan.size with
        | 1 -> Mbuf.get_u8 r off
        | 4 -> (if be then Mbuf.get_i32_be r off else Mbuf.get_i32_le r off)
        | n -> invalid_arg (Printf.sprintf "Codec: char size %d" n)
      in
      if n < 0 || n > 255 then
        raise (Decode_error (Printf.sprintf "invalid character %d" n))
      else Value.Vchar (Char.chr n)
  | Encoding.Kint { bits; signed } ->
      let raw =
        match atom.Mplan.size with
        | 1 -> Mbuf.get_u8 r off
        | 2 -> (if be then Mbuf.get_i16_be r off else Mbuf.get_i16_le r off)
        | 4 -> (if be then Mbuf.get_i32_be r off else Mbuf.get_i32_le r off)
        | n -> invalid_arg (Printf.sprintf "Codec: int size %d" n)
      in
      let v =
        if signed then sign_extend raw bits
        else if bits >= 32 then raw land 0xFFFFFFFF
        else raw land ((1 lsl bits) - 1)
      in
      Value.Vint v

let read_i32s ~be ~signed ~bits r n =
  Mbuf.ralign r 4;
  Mbuf.need r (n * 4);
  let out = Array.make n 0 in
  (if be then
     for i = 0 to n - 1 do
       Array.unsafe_set out i (Mbuf.get_i32_be r (i * 4))
     done
   else
     for i = 0 to n - 1 do
       Array.unsafe_set out i (Mbuf.get_i32_le r (i * 4))
     done);
  Mbuf.skip r (n * 4);
  if bits >= 32 then
    if signed then out else Array.map (fun x -> x land 0xFFFFFFFF) out
  else if signed then Array.map (fun x -> sign_extend x bits) out
  else Array.map (fun x -> x land ((1 lsl bits) - 1)) out

let read_stream r ~be (atom : Mplan.atom) =
  Mbuf.ralign r atom.Mplan.align;
  Mbuf.need r atom.Mplan.size;
  let v = read_at r ~be 0 atom in
  Mbuf.skip r atom.Mplan.size;
  v

(* -- shared length/padding helpers ----------------------------------- *)

let read_len r ~be ~align =
  Mbuf.ralign r align;
  let n = Mbuf.read_i32 r ~be in
  if n < 0 then raise (Decode_error "negative length");
  n

let check_bounds ~what n ~min_len ~max_len =
  if n < min_len then
    raise (Decode_error (Printf.sprintf "%s shorter than minimum" what));
  match max_len with
  | Some m when n > m ->
      raise (Decode_error (Printf.sprintf "%s exceeds its bound" what))
  | Some _ | None -> ()

let admit_count r ~width n =
  if width > 0 && n > Mbuf.remaining r / width then raise Mbuf.Short_buffer

let skip_pad r ~pad_unit n =
  let padded = (n + pad_unit - 1) / pad_unit * pad_unit in
  if padded > n then Mbuf.skip r (padded - n)

(* -- value-dependent wire formats ------------------------------------ *)

(* Encoding's variable-header hooks speak primitives (int64, bool,
   float); these wrappers fix the Value.t mapping once so every engine
   (plan-driven, rpcgen-style, interpretive) emits and accepts
   exactly the same bytes.  Malformed-header errors surface as
   [Decode_error] like every other wire fault; truncation stays
   [Mbuf.Short_buffer]. *)

let wrap_var f = try f () with Encoding.Var_error m -> raise (Decode_error m)

let write_var (vc : Encoding.varcodec) ~check (kind : Encoding.atom_kind) buf v
    =
  match kind with
  | Encoding.Kbool ->
      let b = match v with Value.Vbool b -> b | _ -> as_int v <> 0 in
      vc.Encoding.v_put_bool ~check buf b
  | Encoding.Kchar ->
      let code =
        match v with
        | Value.Vchar c -> Char.code c
        | _ -> as_int v land 0xFF
      in
      vc.Encoding.v_put_int ~check ~signed:false buf (Int64.of_int code)
  | Encoding.Kint { bits; signed } ->
      (* truncate to the declared width first, the same round trip a
         fixed-size store performs *)
      let n = Encoding.canon_int ~bits ~signed (as_int64 v) in
      vc.Encoding.v_put_int ~check ~signed buf n
  | Encoding.Kfloat { bits } ->
      vc.Encoding.v_put_float ~check ~bits buf (as_float v)

let read_var (vc : Encoding.varcodec) (kind : Encoding.atom_kind) r : Value.t =
  wrap_var (fun () ->
      match kind with
      | Encoding.Kbool -> Value.Vbool (vc.Encoding.v_get_bool r)
      | Encoding.Kchar ->
          let n = vc.Encoding.v_get_int ~signed:false r in
          if Int64.unsigned_compare n 255L > 0 then
            raise (Decode_error (Printf.sprintf "invalid character %Ld" n));
          Value.Vchar (Char.chr (Int64.to_int n))
      | Encoding.Kint { bits; signed } ->
          let n = vc.Encoding.v_get_int ~signed r in
          if Encoding.canon_int ~bits ~signed n <> n then
            raise
              (Decode_error
                 (Printf.sprintf "integer %Ld out of range for %d-bit field" n
                    bits));
          if bits <= 32 then Value.Vint (Int64.to_int n) else Value.Vint64 n
      | Encoding.Kfloat { bits } ->
          Value.Vfloat (vc.Encoding.v_get_float ~bits r))

let write_vlen (vc : Encoding.varcodec) ~check (lk : Encoding.lenkind) buf n =
  vc.Encoding.v_put_len ~check buf lk n

let read_vlen (vc : Encoding.varcodec) (lk : Encoding.lenkind) r =
  wrap_var (fun () -> vc.Encoding.v_get_len r lk)

let const_to_value (c : Mint.const) : Value.t =
  match c with
  | Mint.Cint n -> Value.Vint (Int64.to_int n)
  | Mint.Cbool b -> Value.Vbool b
  | Mint.Cchar c -> Value.Vchar c
  | Mint.Cstring s -> Value.Vstring s
