(* Boundary-value coverage for the value-dependent wire formats.

   The msgpack and cbor codecs pick their header width from the value,
   so every width transition is a potential off-by-one: a value encoded
   one byte wider than canonical must be rejected on parse, and a value
   at the last width must not spill into the next.  Each transition is
   pinned here byte-for-byte through the shared {!Codec} mapping (the
   single Value.t <-> varcodec bridge every engine tier uses), then
   round-tripped, then truncated inside the header to prove the typed
   failure is the same for the plan executor and the naive engine.

   The verifier group pins the rejection of an under-reserved variable
   header — the corruption class the Put_varhead op adds: an emit whose
   worst case was never ensured.

   The oracle group checks the in-place codec against String-image
   builders (the reference kept here, outside lib/) on >= 1000 random
   heads per format drawn at every width boundary +-1; the alloc group
   gates the words one send_ints encode and decode allocate. *)

let test name f = Alcotest.test_case name `Quick f

let hex b =
  String.concat ""
    (List.map (Printf.sprintf "%02x")
       (List.map Char.code (List.of_seq (String.to_seq (Bytes.to_string b)))))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let vcc_of (enc : Encoding.t) =
  match enc.Encoding.var with
  | Some v -> v
  | None -> Alcotest.fail (enc.Encoding.name ^ " has no varcodec")

let i32 = Encoding.Kint { bits = 32; signed = true }
let u32 = Encoding.Kint { bits = 32; signed = false }

(* emit one scalar through the shared mapping and return its hex *)
let emit_var enc kind v =
  let buf = Mbuf.create 16 in
  Codec.write_var (vcc_of enc) ~check:true kind buf v;
  Mbuf.contents buf

let emit_len enc lk n =
  let buf = Mbuf.create 16 in
  Codec.write_vlen (vcc_of enc) ~check:true lk buf n;
  Mbuf.contents buf

(* canonical image pinned, round trip equal, whole image consumed, and
   every proper prefix (truncation inside the header) raises the typed
   short-buffer error *)
let pin_scalar enc kind v expect () =
  let img = emit_var enc kind v in
  Alcotest.(check string) "canonical image" expect (hex img);
  let r = Mbuf.reader_of_bytes img in
  let got = Codec.read_var (vcc_of enc) kind r in
  if not (Value.equal got v) then
    Alcotest.failf "round trip: wrote %a, read %a" Value.pp v Value.pp got;
  Alcotest.(check int) "whole image consumed" 0 (Mbuf.remaining r);
  for cut = 0 to Bytes.length img - 1 do
    match Codec.read_var (vcc_of enc) kind (Mbuf.reader_of_bytes ~len:cut img)
    with
    | (_ : Value.t) ->
        Alcotest.failf "accepted a header truncated at %d/%d bytes" cut
          (Bytes.length img)
    | exception Mbuf.Short_buffer -> ()
  done

let pin_len enc lk n expect () =
  let img = emit_len enc lk n in
  Alcotest.(check string) "canonical image" expect (hex img);
  let r = Mbuf.reader_of_bytes img in
  Alcotest.(check int) "round trip" n (Codec.read_vlen (vcc_of enc) lk r);
  Alcotest.(check int) "whole image consumed" 0 (Mbuf.remaining r);
  for cut = 0 to Bytes.length img - 1 do
    match Codec.read_vlen (vcc_of enc) lk (Mbuf.reader_of_bytes ~len:cut img)
    with
    | (_ : int) ->
        Alcotest.failf "accepted a header truncated at %d/%d bytes" cut
          (Bytes.length img)
    | exception Mbuf.Short_buffer -> ()
  done

let vi n = Value.Vint n

(* -- msgpack: every width transition ---------------------------------- *)

let msgpack_int_tests =
  List.map
    (fun (v, expect) ->
      test
        (Printf.sprintf "msgpack int %d -> %s" v expect)
        (pin_scalar Encoding.msgpack i32 (vi v) expect))
    [
      (0, "00"); (127, "7f"); (128, "cc80"); (255, "ccff"); (256, "cd0100");
      (65535, "cdffff"); (65536, "ce00010000");
      (-32, "e0"); (-33, "d0df"); (-128, "d080"); (-129, "d1ff7f");
      (-32768, "d18000"); (-32769, "d2ffff7fff");
    ]

let msgpack_len_tests =
  List.map
    (fun (lk, lname, n, expect) ->
      test
        (Printf.sprintf "msgpack %s len %d -> %s" lname n expect)
        (pin_len Encoding.msgpack lk n expect))
    [
      (Encoding.Lstr, "fixstr", 31, "bf");
      (Encoding.Lstr, "str8", 32, "d920");
      (Encoding.Lstr, "str8", 255, "d9ff");
      (Encoding.Lstr, "str16", 256, "da0100");
      (Encoding.Lstr, "str16", 65535, "daffff");
      (Encoding.Lstr, "str32", 65536, "db00010000");
      (Encoding.Lbin, "bin8", 255, "c4ff");
      (Encoding.Lbin, "bin16", 256, "c50100");
      (Encoding.Lbin, "bin16", 65535, "c5ffff");
      (Encoding.Lbin, "bin32", 65536, "c600010000");
      (Encoding.Larr, "fixarray", 15, "9f");
      (Encoding.Larr, "array16", 16, "dc0010");
      (Encoding.Larr, "array16", 65535, "dcffff");
      (Encoding.Larr, "array32", 65536, "dd00010000");
    ]

(* -- cbor: 23/24, 255/256, 65535/65536 on every major type ------------ *)

let cbor_int_tests =
  List.map
    (fun (v, expect) ->
      test
        (Printf.sprintf "cbor int %d -> %s" v expect)
        (pin_scalar Encoding.cbor i32 (vi v) expect))
    [
      (0, "00"); (23, "17"); (24, "1818"); (255, "18ff"); (256, "190100");
      (65535, "19ffff"); (65536, "1a00010000");
      (-24, "37"); (-25, "3818"); (-256, "38ff"); (-257, "390100");
      (-65536, "39ffff"); (-65537, "3a00010000");
    ]

let cbor_len_tests =
  List.map
    (fun (lk, lname, n, expect) ->
      test
        (Printf.sprintf "cbor %s len %d -> %s" lname n expect)
        (pin_len Encoding.cbor lk n expect))
    [
      (Encoding.Lbin, "bytes", 23, "57");
      (Encoding.Lbin, "bytes", 24, "5818");
      (Encoding.Lbin, "bytes", 255, "58ff");
      (Encoding.Lbin, "bytes", 256, "590100");
      (Encoding.Lbin, "bytes", 65535, "59ffff");
      (Encoding.Lbin, "bytes", 65536, "5a00010000");
      (Encoding.Lstr, "text", 23, "77");
      (Encoding.Lstr, "text", 24, "7818");
      (Encoding.Lstr, "text", 255, "78ff");
      (Encoding.Lstr, "text", 256, "790100");
      (Encoding.Lstr, "text", 65535, "79ffff");
      (Encoding.Lstr, "text", 65536, "7a00010000");
      (Encoding.Larr, "array", 23, "97");
      (Encoding.Larr, "array", 24, "9818");
      (Encoding.Larr, "array", 255, "98ff");
      (Encoding.Larr, "array", 256, "990100");
      (Encoding.Larr, "array", 65535, "99ffff");
      (Encoding.Larr, "array", 65536, "9a00010000");
    ]

(* -- non-minimal headers are rejected on parse ------------------------ *)

let non_minimal_tests =
  List.map
    (fun (enc, name, img) ->
      test (name ^ " rejects a non-minimal header") (fun () ->
          let img = Bytes.of_string img in
          match Codec.read_var (vcc_of enc) i32 (Mbuf.reader_of_bytes img) with
          | (_ : Value.t) ->
              Alcotest.failf "accepted non-minimal %s" (hex img)
          | exception Codec.Decode_error _ -> ()))
    [
      (* 127 as uint8: one width too wide *)
      (Encoding.msgpack, "msgpack", "\xcc\x7f");
      (* 255 as uint16 *)
      (Encoding.msgpack, "msgpack 16-bit", "\xcd\x00\xff");
      (* 23 with a one-byte argument *)
      (Encoding.cbor, "cbor", "\x18\x17");
      (* 255 with a two-byte argument *)
      (Encoding.cbor, "cbor 16-bit", "\x19\x00\xff");
    ]

(* -- scalar boundaries through the full pipeline ---------------------- *)

(* one i32 parameter: the plan path emits Put_varhead, the naive path
   calls Codec.write_var — both must produce exactly the pinned image *)
let pipeline_scalar_tests =
  List.map
    (fun (enc, v, expect) ->
      test
        (Printf.sprintf "%s pipeline i32 %d -> %s" enc.Encoding.name v expect)
        (fun () ->
          let m = Mint.create () in
          let idx = Mint.int32 m in
          let roots =
            [
              Plan_compile.Rvalue
                ( Mplan.Rparam { index = 0; name = "v"; deref = false },
                  idx, Pres.Direct );
            ]
          in
          let e_plan = Stub_opt.compile_encoder ~enc ~mint:m ~named:[] roots in
          let e_naive =
            Stub_naive.compile_encoder ~enc ~mint:m ~named:[] roots
          in
          let run e =
            let buf = Mbuf.create 16 in
            e buf [| vi v |];
            hex (Mbuf.contents buf)
          in
          Alcotest.(check string) "plan bytes" expect (run e_plan);
          Alcotest.(check string) "naive bytes" expect (run e_naive);
          let d =
            Stub_opt.compile_decoder ~enc ~mint:m ~named:[]
              [ Stub_opt.Dvalue (idx, Pres.Direct) ]
          in
          let wire = emit_var enc i32 (vi v) in
          match d (Mbuf.reader_of_bytes wire) with
          | [| got |] when Value.equal got (vi v) -> ()
          | _ -> Alcotest.fail "plan decode disagrees"))
    (List.concat_map
       (fun enc -> [ (enc, 127, ""); (enc, 128, ""); (enc, 65536, "") ])
       [ Encoding.msgpack; Encoding.cbor ]
    |> List.map (fun (enc, v, _) ->
           let buf = Mbuf.create 16 in
           Codec.write_var (vcc_of enc) ~check:true i32 buf (vi v);
           (enc, v, hex (Mbuf.contents buf))))

(* -- truncation mid-header parity across engine tiers ----------------- *)

(* A 300-char string forces a multi-byte length header (msgpack str16,
   cbor text+2).  Cut the wire at EVERY byte — including each byte
   inside the header — and require the plan decoder and the naive
   decoder to fail (or succeed) identically. *)
let truncation_parity_tests =
  List.map
    (fun (enc : Encoding.t) ->
      test
        (enc.Encoding.name ^ ": mid-header truncation parity across tiers")
        (fun () ->
          let m = Mint.create () in
          let s = Mint.string_ m ~max_len:(Some 512) in
          let roots =
            [
              Plan_compile.Rvalue
                ( Mplan.Rparam { index = 0; name = "s"; deref = false },
                  s, Pres.Terminated_string );
            ]
          in
          let droots = [ Stub_opt.Dvalue (s, Pres.Terminated_string) ] in
          let v = Value.Vstring (String.make 300 'x') in
          let e = Stub_opt.compile_encoder ~enc ~mint:m ~named:[] roots in
          let buf = Mbuf.create 512 in
          e buf [| v |];
          let wire = Mbuf.contents buf in
          let d_plan = Stub_opt.compile_decoder ~enc ~mint:m ~named:[] droots
          and d_naive =
            Stub_naive.compile_decoder ~enc ~mint:m ~named:[] droots
          in
          let outcome d cut =
            match d (Mbuf.reader_of_bytes ~len:cut wire) with
            | [| v' |] -> Some v'
            | _ -> None
            | exception (Mbuf.Short_buffer | Codec.Decode_error _) -> None
          in
          for cut = 0 to Bytes.length wire do
            let a = outcome d_plan cut and b = outcome d_naive cut in
            match (a, b) with
            | None, None -> ()
            | Some x, Some y when Value.equal x y -> ()
            | _ ->
                Alcotest.failf "tiers disagree at cut %d/%d" cut
                  (Bytes.length wire)
          done;
          match outcome d_plan (Bytes.length wire) with
          | Some v' when Value.equal v' v -> ()
          | _ -> Alcotest.fail "full wire did not decode to the input"))
    [ Encoding.msgpack; Encoding.cbor ]

(* -- the verifier rejects a dropped worst-case reservation ------------ *)

let verifier_tests =
  [
    test "generated msgpack/cbor plans verify clean" (fun () ->
        List.iter
          (fun enc ->
            let m = Mint.create () in
            let s = Mint.string_ m ~max_len:(Some 64) in
            let arr = Mint.array m ~elem:(Mint.int32 m) ~min_len:0
                ~max_len:(Some 16) in
            let payload = Mint.struct_ m [ ("name", s); ("xs", arr) ] in
            let pres =
              Pres.Struct
                [
                  ("name", Pres.Terminated_string);
                  ( "xs",
                    Pres.Counted_seq
                      {
                        len_field = "_length";
                        buf_field = "_buffer";
                        elem = Pres.Direct;
                      } );
                ]
            in
            let roots =
              [
                Plan_compile.Rvalue
                  ( Mplan.Rparam { index = 0; name = "v"; deref = false },
                    payload, pres );
              ]
            in
            let plan = Plan_compile.compile ~enc ~mint:m ~named:[] roots in
            (match Plan_verify.check_plan plan with
            | Ok () -> ()
            | Error e ->
                Alcotest.failf "%s plan rejected: %s" enc.Encoding.name
                  (Plan_verify.error_to_string e));
            let dplan =
              Dplan_compile.compile ~enc ~mint:m ~named:[]
                [ Dplan_compile.Dvalue (payload, pres) ]
            in
            match Plan_verify.check_dplan dplan with
            | Ok () -> ()
            | Error e ->
                Alcotest.failf "%s dplan rejected: %s" enc.Encoding.name
                  (Plan_verify.error_to_string e))
          [ Encoding.msgpack; Encoding.cbor ]);
    test "under-reserved variable header is rejected (pinned diagnostic)"
      (fun () ->
        (* vh_check = false with no covering Ensure ahead of it: the
           emit could overrun the buffer by up to vh_worst bytes *)
        let bad =
          {
            Plan_compile.p_ops =
              [
                Mplan.Put_varhead
                  {
                    vh_kind = i32;
                    vh_worst = 5;
                    vh_check = false;
                    vh_src = Mplan.Vh_const 7L;
                    vh_image = Some "\x07";
                  };
              ];
            p_subs = [];
          }
        in
        match Plan_verify.check_plan bad with
        | Ok () -> Alcotest.fail "verifier accepted an under-reserved varhead"
        | Error e ->
            let msg = Plan_verify.error_to_string e in
            if
              not
                (contains msg
                   "variable header skips its worst-case reservation outside \
                    any covering reservation (dropped ensure)")
            then Alcotest.failf "wrong diagnostic: %s" msg);
    test "self-checking variable header is accepted" (fun () ->
        let ok =
          {
            Plan_compile.p_ops =
              [
                Mplan.Put_varhead
                  {
                    vh_kind = i32;
                    vh_worst = 5;
                    vh_check = true;
                    vh_src = Mplan.Vh_const 7L;
                    vh_image = Some "\x07";
                  };
              ];
            p_subs = [];
          }
        in
        match Plan_verify.check_plan ok with
        | Ok () -> ()
        | Error e ->
            Alcotest.failf "verifier rejected a self-checking varhead: %s"
              (Plan_verify.error_to_string e));
    test "unsigned kinds pin the same transitions" (fun () ->
        Alcotest.(check string) "msgpack u32 128" "cc80"
          (hex (emit_var Encoding.msgpack u32 (vi 128)));
        Alcotest.(check string) "cbor u32 24" "1818"
          (hex (emit_var Encoding.cbor u32 (vi 24))));
  ]


(* -- the String-image oracle ------------------------------------------ *)

(* The reference encoder: each head built as a String from its tag and
   a big-endian image of its payload, the way the codec itself did
   before heads were written in place.  The property below checks the
   in-place emitters and parsers against it at every width boundary. *)
module Oracle = struct
  let u_le a b = Int64.unsigned_compare a b <= 0

  (* big-endian image of the low [n] bytes of [v] *)
  let be_bytes n v =
    String.init n (fun i ->
        Char.chr
          (Int64.to_int
             (Int64.logand (Int64.shift_right_logical v (8 * (n - 1 - i))) 0xFFL)))

  let mp_uint_image v =
    if u_le v 0x7fL then String.make 1 (Char.chr (Int64.to_int v))
    else if u_le v 0xffL then "\xcc" ^ be_bytes 1 v
    else if u_le v 0xffffL then "\xcd" ^ be_bytes 2 v
    else if u_le v 0xffff_ffffL then "\xce" ^ be_bytes 4 v
    else "\xcf" ^ be_bytes 8 v

  let mp_int_image ~signed v =
    if (not signed) || Int64.compare v 0L >= 0 then mp_uint_image v
    else if Int64.compare v (-32L) >= 0 then be_bytes 1 v
    else if Int64.compare v (-128L) >= 0 then "\xd0" ^ be_bytes 1 v
    else if Int64.compare v (-32768L) >= 0 then "\xd1" ^ be_bytes 2 v
    else if Int64.compare v (-2147483648L) >= 0 then "\xd2" ^ be_bytes 4 v
    else "\xd3" ^ be_bytes 8 v

  let mp_len_image kind n =
    let v = Int64.of_int n in
    match kind with
    | Encoding.Lstr ->
        if n <= 31 then String.make 1 (Char.chr (0xa0 lor n))
        else if n <= 0xff then "\xd9" ^ be_bytes 1 v
        else if n <= 0xffff then "\xda" ^ be_bytes 2 v
        else "\xdb" ^ be_bytes 4 v
    | Encoding.Lbin ->
        if n <= 0xff then "\xc4" ^ be_bytes 1 v
        else if n <= 0xffff then "\xc5" ^ be_bytes 2 v
        else "\xc6" ^ be_bytes 4 v
    | Encoding.Larr ->
        if n <= 15 then String.make 1 (Char.chr (0x90 lor n))
        else if n <= 0xffff then "\xdc" ^ be_bytes 2 v
        else "\xdd" ^ be_bytes 4 v

  let cbor_head major n =
    let mt = major lsl 5 in
    if u_le n 23L then String.make 1 (Char.chr (mt lor Int64.to_int n))
    else if u_le n 0xffL then String.make 1 (Char.chr (mt lor 24)) ^ be_bytes 1 n
    else if u_le n 0xffffL then
      String.make 1 (Char.chr (mt lor 25)) ^ be_bytes 2 n
    else if u_le n 0xffff_ffffL then
      String.make 1 (Char.chr (mt lor 26)) ^ be_bytes 4 n
    else String.make 1 (Char.chr (mt lor 27)) ^ be_bytes 8 n

  let cbor_int_image ~signed v =
    if (not signed) || Int64.compare v 0L >= 0 then cbor_head 0 v
    else cbor_head 1 (Int64.lognot v)

  let cbor_major = function
    | Encoding.Lbin -> 2
    | Encoding.Lstr -> 3
    | Encoding.Larr -> 4

  let cbor_len_image kind n = cbor_head (cbor_major kind) (Int64.of_int n)

  let is_cbor (enc : Encoding.t) = enc.Encoding.name = "cbor"

  let int_image enc ~signed v =
    if is_cbor enc then cbor_int_image ~signed v else mp_int_image ~signed v

  let len_image enc kind n =
    if is_cbor enc then cbor_len_image kind n else mp_len_image kind n

  let bool_image enc b =
    match (is_cbor enc, b) with
    | true, true -> "\xf5"
    | true, false -> "\xf4"
    | false, true -> "\xc3"
    | false, false -> "\xc2"

  (* the same value one width wider than canonical, with the message
     its parse must fail with; [None] at the widest form *)
  let mp_wider_int ~signed v =
    let p tag n msg = Some (tag ^ be_bytes n v, "msgpack: non-minimal " ^ msg) in
    if (not signed) || Int64.compare v 0L >= 0 then
      if u_le v 0x7fL then p "\xcc" 1 "uint8"
      else if u_le v 0xffL then p "\xcd" 2 "uint16"
      else if u_le v 0xffffL then p "\xce" 4 "uint32"
      else if u_le v 0xffff_ffffL then p "\xcf" 8 "uint64"
      else None
    else if Int64.compare v (-32L) >= 0 then p "\xd0" 1 "int8"
    else if Int64.compare v (-128L) >= 0 then p "\xd1" 2 "int16"
    else if Int64.compare v (-32768L) >= 0 then p "\xd2" 4 "int32"
    else if Int64.compare v (-2147483648L) >= 0 then p "\xd3" 8 "int64"
    else None

  let mp_wider_len kind n =
    let v = Int64.of_int n in
    let p tag w msg =
      Some (tag ^ be_bytes w v, "msgpack: non-minimal " ^ msg ^ " length")
    in
    match kind with
    | Encoding.Lstr ->
        if n <= 31 then p "\xd9" 1 "str8"
        else if n <= 0xff then p "\xda" 2 "str16"
        else if n <= 0xffff then p "\xdb" 4 "str32"
        else None
    | Encoding.Lbin ->
        if n <= 0xff then p "\xc5" 2 "bin16"
        else if n <= 0xffff then p "\xc6" 4 "bin32"
        else None
    | Encoding.Larr ->
        if n <= 0xffff then
          if n <= 15 then p "\xdc" 2 "array16" else p "\xdd" 4 "array32"
        else None

  let cbor_wider_head major n =
    let mt = major lsl 5 in
    let p info w =
      let t = mt lor info in
      Some
        ( String.make 1 (Char.chr t) ^ be_bytes w n,
          Printf.sprintf "cbor: non-minimal argument in head 0x%02x" t )
    in
    if u_le n 23L then p 24 1
    else if u_le n 0xffL then p 25 2
    else if u_le n 0xffffL then p 26 4
    else if u_le n 0xffff_ffffL then p 27 8
    else None

  let wider_int enc ~signed v =
    if not (is_cbor enc) then mp_wider_int ~signed v
    else if (not signed) || Int64.compare v 0L >= 0 then cbor_wider_head 0 v
    else cbor_wider_head 1 (Int64.lognot v)

  let wider_len enc kind n =
    if is_cbor enc then cbor_wider_head (cbor_major kind) (Int64.of_int n)
    else mp_wider_len kind n
end

type oracle_case =
  | Oscalar of Encoding.atom_kind * Value.t
  | Olen of Encoding.lenkind * int

let kind_name = function
  | Encoding.Kbool -> "bool"
  | Encoding.Kchar -> "char"
  | Encoding.Kint { bits; signed } ->
      Printf.sprintf "%s%d" (if signed then "i" else "u") bits
  | Encoding.Kfloat { bits } -> Printf.sprintf "f%d" bits

let lk_name = function
  | Encoding.Lstr -> "Lstr"
  | Encoding.Lbin -> "Lbin"
  | Encoding.Larr -> "Larr"

let print_case = function
  | Oscalar (k, v) -> Format.asprintf "%s %a" (kind_name k) Value.pp v
  | Olen (lk, n) -> Printf.sprintf "%s %d" (lk_name lk) n

let int_kinds =
  List.concat_map
    (fun bits ->
      [ Encoding.Kint { bits; signed = true };
        Encoding.Kint { bits; signed = false } ])
    [ 8; 16; 32; 64 ]

(* every width boundary of either format, both signs, then +-1 *)
let boundaries =
  let edges =
    [ 0L; 15L; 23L; 31L; 127L; 255L; 65535L; 0xffff_ffffL; Int64.max_int;
      -1L; -24L; -32L; -128L; -256L; -32768L; -65536L; -2147483648L;
      -4294967296L; Int64.min_int; 0x7fff_ffffL; 0x3fff_ffff_ffff_ffffL;
      -0x4000_0000_0000_0000L ]
  in
  List.concat_map (fun e -> [ Int64.pred e; e; Int64.succ e ]) edges

let len_boundaries =
  List.concat_map
    (fun e -> List.filter (fun n -> n >= 0) [ e - 1; e; e + 1 ])
    [ 0; 15; 23; 31; 255; 65535; 0x7fff_ffff - 1 ]

let oracle_gen =
  let open QCheck.Gen in
  let int64_near =
    frequency
      [ (4, oneofl boundaries);
        (1, map Int64.of_int (int_range (-70000) 70000));
        (1, ui64) ]
  in
  let scalar =
    frequency
      [ ( 8,
          let* kind = oneofl int_kinds in
          let* v = int64_near in
          let* narrow = bool in
          (* a value that fits a native int may arrive as either
             representation; the bytes must not depend on it *)
          let fits = Int64.equal (Int64.of_int (Int64.to_int v)) v in
          return
            (Oscalar
               ( kind,
                 if fits && narrow then Value.Vint (Int64.to_int v)
                 else Value.Vint64 v )) );
        ( 1,
          let* c = oneofl [ 0; 1; 31; 32; 126; 127; 128; 129; 254; 255 ] in
          return (Oscalar (Encoding.Kchar, Value.Vchar (Char.chr c))) );
        (1, map (fun b -> Oscalar (Encoding.Kbool, Value.Vbool b)) bool) ]
  in
  let length =
    let* lk = oneofl [ Encoding.Lstr; Encoding.Lbin; Encoding.Larr ] in
    let* n =
      frequency [ (3, oneofl len_boundaries); (1, int_range 0 0x7fff_ffff) ]
    in
    return (Olen (lk, n))
  in
  frequency [ (3, scalar); (1, length) ]

(* what the field holds once written: truncated to its width *)
let canonical kind (v : Value.t) =
  match (kind, v) with
  | Encoding.Kint { bits; signed }, (Value.Vint _ | Value.Vint64 _) ->
      let c = Encoding.canon_int ~bits ~signed (Codec.as_int64 v) in
      (c, if bits <= 32 then Value.Vint (Int64.to_int c) else Value.Vint64 c)
  | Encoding.Kchar, Value.Vchar c -> (Int64.of_int (Char.code c), v)
  | Encoding.Kbool, Value.Vbool b -> ((if b then 1L else 0L), v)
  | _ -> Alcotest.fail "oracle: unexpected case"

let every_prefix_is_short what img parse =
  for cut = 0 to String.length img - 1 do
    match parse (Mbuf.reader_of_bytes ~len:cut (Bytes.of_string img)) with
    | () -> QCheck.Test.fail_reportf "%s: accepted a %d/%d-byte prefix" what cut
              (String.length img)
    | exception Mbuf.Short_buffer -> ()
  done

let rejects_wider what wider parse =
  match wider with
  | None -> ()
  | Some (img, msg) -> (
      match parse (Mbuf.reader_of_bytes (Bytes.of_string img)) with
      | () -> QCheck.Test.fail_reportf "%s: accepted non-minimal %s" what img
      | exception Codec.Decode_error m when m = msg -> ()
      | exception Codec.Decode_error m ->
          QCheck.Test.fail_reportf "%s: non-minimal form: %S, want %S" what m msg)

let oracle_prop (enc : Encoding.t) case =
  let vc = vcc_of enc in
  let what = enc.Encoding.name ^ " " ^ print_case case in
  let check_bytes img write =
    let buf = Mbuf.create 4 in
    write buf;
    let got = Bytes.to_string (Mbuf.contents buf) in
    if got <> img then
      QCheck.Test.fail_reportf "%s: wrote %s, oracle %s" what
        (hex (Bytes.of_string got)) (hex (Bytes.of_string img))
  in
  (match case with
  | Oscalar (kind, v) ->
      let n, expect = canonical kind v in
      let img =
        match kind with
        | Encoding.Kbool -> Oracle.bool_image enc (Value.equal v (Value.Vbool true))
        | Encoding.Kchar -> Oracle.int_image enc ~signed:false n
        | Encoding.Kint { signed; _ } -> Oracle.int_image enc ~signed n
        | Encoding.Kfloat _ -> assert false
      in
      check_bytes img (fun buf -> Codec.write_var vc ~check:true kind buf v);
      (match kind, v with
      | (Encoding.Kint _ | Encoding.Kchar | Encoding.Kbool), Value.Vint x ->
          check_bytes img (fun buf -> Codec.write_var_int vc ~check:true kind buf x)
      | _ -> ());
      let r = Mbuf.reader_of_bytes (Bytes.of_string img) in
      let got = Codec.read_var vc kind r in
      if not (Value.equal got expect) || Mbuf.remaining r <> 0 then
        QCheck.Test.fail_reportf "%s: read back %a" what Value.pp got;
      let parse r = ignore (Codec.read_var vc kind r : Value.t) in
      every_prefix_is_short what img parse;
      let signed =
        match kind with Encoding.Kint { signed; _ } -> signed | _ -> false
      in
      if kind <> Encoding.Kbool then
        rejects_wider what (Oracle.wider_int enc ~signed n) parse
  | Olen (lk, n) ->
      let img = Oracle.len_image enc lk n in
      check_bytes img (fun buf -> Codec.write_vlen vc ~check:true lk buf n);
      let r = Mbuf.reader_of_bytes (Bytes.of_string img) in
      let got = Codec.read_vlen vc lk r in
      if got <> n || Mbuf.remaining r <> 0 then
        QCheck.Test.fail_reportf "%s: read back %d" what got;
      let parse r = ignore (Codec.read_vlen vc lk r : int) in
      every_prefix_is_short what img parse;
      rejects_wider what (Oracle.wider_len enc lk n) parse);
  true

let oracle_tests =
  List.map
    (fun (enc : Encoding.t) ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~count:2000
           ~name:(enc.Encoding.name ^ " heads equal the String-image oracle")
           (QCheck.make ~print:print_case oracle_gen)
           (oracle_prop enc)))
    [ Encoding.msgpack; Encoding.cbor ]
  @ [
      test "constant images equal the oracle" (fun () ->
          List.iter
            (fun (enc : Encoding.t) ->
              let vc = vcc_of enc in
              List.iter
                (fun kind ->
                  List.iter
                    (fun v ->
                      let signed =
                        match kind with
                        | Encoding.Kint { signed; _ } -> signed
                        | _ -> false
                      in
                      let bits =
                        match kind with Encoding.Kint { bits; _ } -> bits | _ -> 64
                      in
                      Alcotest.(check string)
                        (Printf.sprintf "%s %s %Ld" enc.Encoding.name
                           (kind_name kind) v)
                        (Oracle.int_image enc ~signed
                           (Encoding.canon_int ~bits ~signed v))
                        (Encoding.var_const_image vc kind v))
                    boundaries)
                int_kinds;
              List.iter
                (fun lk ->
                  List.iter
                    (fun n ->
                      Alcotest.(check string)
                        (Printf.sprintf "%s %s %d" enc.Encoding.name (lk_name lk) n)
                        (Oracle.len_image enc lk n)
                        (Encoding.var_len_image vc lk n))
                    len_boundaries)
                [ Encoding.Lstr; Encoding.Lbin; Encoding.Larr ])
            [ Encoding.msgpack; Encoding.cbor ]);
    ]

(* -- allocation gate --------------------------------------------------- *)

(* Heads are written in place and parsed into native ints, so encoding a
   1 KiB send_ints allocates (next to) nothing per call, and decoding it
   allocates the result int array plus a constant.  Minor words over 100
   warmed-up calls; a String image or an Int64 box per element would
   cost thousands of words per call. *)
let words_per_call f =
  for _ = 1 to 10 do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    f ()
  done;
  (Gc.minor_words () -. before) /. 100.

let alloc_tests =
  List.map
    (fun (enc : Encoding.t) ->
      test (enc.Encoding.name ^ " send_ints 1 KiB: words per encode and decode")
        (fun () ->
          let spec =
            Paper_fixtures.request_spec
              (Paper_fixtures.bench_presc `Corba)
              ~op:(Paper_fixtures.op_of_payload `Ints)
          in
          let mint = spec.Paper_fixtures.ms_mint
          and named = spec.Paper_fixtures.ms_named in
          let value = Paper_fixtures.payload `Ints ~bytes:1024 in
          let n =
            match value with
            | Value.Vint_array a -> Array.length a
            | _ -> Alcotest.fail "send_ints payload is not an int array"
          in
          let e =
            Stub_opt.compile_encoder ~enc ~mint ~named spec.Paper_fixtures.ms_roots
          in
          let d =
            Stub_opt.compile_decoder ~enc ~mint ~named
              spec.Paper_fixtures.ms_droots
          in
          let args = [| value |] in
          let buf = Mbuf.create 8192 in
          let encode () =
            Mbuf.reset buf;
            e buf args
          in
          encode ();
          let wire = Mbuf.contents buf in
          let decode () = ignore (d (Mbuf.reader_of_bytes wire) : Value.t array) in
          (match d (Mbuf.reader_of_bytes wire) with
          | [| v |] when Value.equal v value -> ()
          | _ -> Alcotest.fail "decode does not return the payload");
          let we = words_per_call encode and wd = words_per_call decode in
          if we > 32. then
            Alcotest.failf "encode allocates %.1f words per call (> 32)" we;
          let bound = float_of_int (n + 1 + 32) in
          if wd > bound then
            Alcotest.failf "decode allocates %.1f words per call (> n + 1 + 32 = %.0f)"
              wd bound))
    [ Encoding.msgpack; Encoding.cbor ]

let suite =
  [
    ( "varhead:boundaries",
      msgpack_int_tests @ msgpack_len_tests @ cbor_int_tests @ cbor_len_tests
      @ non_minimal_tests );
    ("varhead:pipeline", pipeline_scalar_tests @ truncation_parity_tests);
    ("varhead:verifier", verifier_tests);
    ("varhead:oracle", oracle_tests);
    ("varhead:alloc", alloc_tests);
  ]
