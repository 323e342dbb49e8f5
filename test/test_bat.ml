(* Tests for the Monet-style column storage (lib/bat). *)

module Int_col = Scj_bat.Int_col
module Str_col = Scj_bat.Str_col
module Dict = Scj_bat.Dict
module Bat = Scj_bat.Bat

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_int_list = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Int_col                                                             *)
(* ------------------------------------------------------------------ *)

let test_create_empty () =
  let c = Int_col.create () in
  check_int "length" 0 (Int_col.length c);
  check_bool "is_empty" true (Int_col.is_empty c)

let test_append_get () =
  let c = Int_col.create ~capacity:1 () in
  for i = 0 to 99 do
    let idx = Int_col.append c (i * 7) in
    check_int "append returns index" i idx
  done;
  check_int "length" 100 (Int_col.length c);
  for i = 0 to 99 do
    check_int "get" (i * 7) (Int_col.get c i)
  done;
  check_int "last" (99 * 7) (Int_col.last c)

let test_set () =
  let c = Int_col.of_list [ 1; 2; 3 ] in
  Int_col.set c 1 42;
  check_int_list "after set" [ 1; 42; 3 ] (Int_col.to_list c)

let test_bounds () =
  let c = Int_col.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get -1" (Invalid_argument "Int_col.get: index -1 out of bounds [0,3)")
    (fun () -> ignore (Int_col.get c (-1)));
  Alcotest.check_raises "get 3" (Invalid_argument "Int_col.get: index 3 out of bounds [0,3)")
    (fun () -> ignore (Int_col.get c 3));
  let empty = Int_col.create () in
  Alcotest.check_raises "last of empty" (Invalid_argument "Int_col.last: empty column") (fun () ->
      ignore (Int_col.last empty))

let test_of_to_roundtrip () =
  let a = [| 5; 4; 3; 2; 1 |] in
  let c = Int_col.of_array a in
  a.(0) <- 99;
  (* of_array must copy *)
  check_int "independent of source" 5 (Int_col.get c 0);
  let back = Int_col.to_array c in
  back.(1) <- 99;
  check_int "to_array copies" 4 (Int_col.get c 1)

let test_sub () =
  let c = Int_col.of_list [ 0; 1; 2; 3; 4; 5 ] in
  check_int_list "middle" [ 2; 3 ] (Int_col.to_list (Int_col.sub c ~pos:2 ~len:2));
  check_int_list "empty slice" [] (Int_col.to_list (Int_col.sub c ~pos:6 ~len:0));
  Alcotest.check_raises "bad slice"
    (Invalid_argument "Int_col.sub: slice [4,7) out of bounds [0,6)") (fun () ->
      ignore (Int_col.sub c ~pos:4 ~len:3))

let test_clear_reuse () =
  let c = Int_col.of_list [ 1; 2 ] in
  Int_col.clear c;
  check_int "cleared" 0 (Int_col.length c);
  Int_col.append_unit c 9;
  check_int_list "reused" [ 9 ] (Int_col.to_list c)

let test_sort_and_search () =
  let c = Int_col.of_list [ 5; 1; 4; 1; 3 ] in
  check_bool "unsorted" false (Int_col.is_sorted c);
  Int_col.sort c;
  check_bool "sorted" true (Int_col.is_sorted c);
  check_int_list "sorted values" [ 1; 1; 3; 4; 5 ] (Int_col.to_list c);
  check_int "first_ge 1" 0 (Int_col.first_ge c 1);
  check_int "first_gt 1" 2 (Int_col.first_gt c 1);
  check_int "first_ge 2" 2 (Int_col.first_ge c 2);
  check_int "first_ge 6" 5 (Int_col.first_ge c 6);
  check_bool "mem 4" true (Int_col.mem_sorted c 4);
  check_bool "mem 2" false (Int_col.mem_sorted c 2)

let test_fold_iter () =
  let c = Int_col.of_list [ 1; 2; 3; 4 ] in
  check_int "fold sum" 10 (Int_col.fold_left ( + ) 0 c);
  let seen = ref [] in
  Int_col.iteri (fun i v -> seen := (i, v) :: !seen) c;
  Alcotest.(check (list (pair int int)))
    "iteri order"
    [ (0, 1); (1, 2); (2, 3); (3, 4) ]
    (List.rev !seen)

let test_equal_copy () =
  let a = Int_col.of_list [ 1; 2; 3 ] in
  let b = Int_col.copy a in
  check_bool "equal" true (Int_col.equal a b);
  Int_col.set b 0 9;
  check_bool "not equal after set" false (Int_col.equal a b);
  check_int "copy independent" 1 (Int_col.get a 0)

let test_bulk_ops () =
  let c = Int_col.of_list [ 10; 11 ] in
  Int_col.append_slice c [| 0; 1; 2; 3; 4 |] ~pos:1 ~len:3;
  check_int_list "append_slice" [ 10; 11; 1; 2; 3 ] (Int_col.to_list c);
  Int_col.append_slice c [| 9 |] ~pos:0 ~len:0;
  check_int "empty slice is a no-op" 5 (Int_col.length c);
  Int_col.append_range c ~lo:7 ~hi:9;
  check_int_list "append_range" [ 10; 11; 1; 2; 3; 7; 8; 9 ] (Int_col.to_list c);
  Int_col.append_range c ~lo:5 ~hi:4;
  check_int "empty range is a no-op" 8 (Int_col.length c);
  let dst = Array.make 10 (-1) in
  Int_col.blit_into c dst ~dst_pos:1;
  Alcotest.(check (array int))
    "blit_into writes the live prefix"
    [| -1; 10; 11; 1; 2; 3; 7; 8; 9; -1 |]
    dst;
  Alcotest.check_raises "bad slice"
    (Invalid_argument "Int_col.append_slice: slice [1,4) out of bounds [0,2)") (fun () ->
      Int_col.append_slice c [| 0; 1 |] ~pos:1 ~len:3);
  Alcotest.check_raises "bad blit"
    (Invalid_argument "Int_col.blit_into: [5,13) out of bounds [0,10)") (fun () ->
      Int_col.blit_into c dst ~dst_pos:5)

let test_reserve () =
  let c = Int_col.create ~capacity:1 () in
  Int_col.reserve c 100;
  Int_col.append_unit c 1;
  check_int "reserve keeps contents growable" 1 (Int_col.length c);
  Alcotest.check_raises "negative reserve"
    (Invalid_argument "Int_col.reserve: negative count") (fun () -> Int_col.reserve c (-1))

(* Property: the bulk appends agree with element-wise appends. *)
let prop_bulk_matches_pointwise =
  QCheck.Test.make ~count:300 ~name:"append_slice/append_range = per-element appends"
    QCheck.(triple (list small_signed_int) (array small_signed_int) small_nat)
    (fun (seed, src, span) ->
      let bulk = Int_col.of_list seed and point = Int_col.of_list seed in
      Int_col.append_slice bulk src ~pos:0 ~len:(Array.length src);
      Array.iter (Int_col.append_unit point) src;
      let lo = 3 and hi = 3 + span - 1 in
      Int_col.append_range bulk ~lo ~hi;
      for v = lo to hi do
        Int_col.append_unit point v
      done;
      Int_col.equal bulk point)

(* Property: a column behaves like a growable array, whether it grows
   from capacity 1 or is created at exactly its final length (the
   full-buffer edge of [to_array]). *)
let prop_model =
  QCheck.Test.make ~count:300 ~name:"int_col behaves like list"
    QCheck.(list small_signed_int)
    (fun values ->
      let n = List.length values in
      List.for_all
        (fun capacity ->
          let c = Int_col.create ~capacity () in
          List.iter (Int_col.append_unit c) values;
          Int_col.to_list c = values
          && Int_col.to_array c = Array.of_list values
          && Int_col.length c = n)
        [ 1; max 1 n ])

let prop_first_ge =
  QCheck.Test.make ~count:300 ~name:"first_ge agrees with linear scan"
    QCheck.(pair (list small_signed_int) small_signed_int)
    (fun (values, key) ->
      let sorted = List.sort compare values in
      let c = Int_col.of_list sorted in
      let expected =
        let rec scan i = function
          | [] -> i
          | v :: rest -> if v >= key then i else scan (i + 1) rest
        in
        scan 0 sorted
      in
      Int_col.first_ge c key = expected)

(* ------------------------------------------------------------------ *)
(* Bigarray backing: the column must keep the exact semantics it had    *)
(* when it sat on a plain [int array], so every property below runs the *)
(* same operation against an [int array] reference model.               *)
(* ------------------------------------------------------------------ *)

(* Column-to-column bulk moves (Array1 blits underneath) agree with the
   Array.blit reference, including len = 0 slices and whole-column moves,
   while the destination grows from capacity 1 so each doubling edge is
   crossed mid-blit. *)
let prop_col_blit =
  QCheck.Test.make ~count:300 ~name:"append_col/blit_into_col = Array.blit reference"
    QCheck.(triple (array small_signed_int) (array small_signed_int) (pair small_nat small_nat))
    (fun (dst0, src0, (p, l)) ->
      let pos = if Array.length src0 = 0 then 0 else p mod (Array.length src0 + 1) in
      let len = min l (Array.length src0 - pos) in
      let dst = Int_col.create ~capacity:1 () in
      Array.iter (Int_col.append_unit dst) dst0;
      let src = Int_col.of_array src0 in
      Int_col.append_col dst src ~pos ~len;
      let expected = Array.append dst0 (Array.sub src0 pos len) in
      let ok_append = Int_col.to_array dst = expected in
      let ok_blit =
        Array.length dst0 < Array.length src0
        ||
        let d = Int_col.of_array dst0 in
        Int_col.blit_into_col src d ~dst_pos:0;
        let exp = Array.copy dst0 in
        Array.blit src0 0 exp 0 (Array.length src0);
        Int_col.to_array d = exp
      in
      ok_append && ok_blit)

(* Slices and copies materialize fresh buffers that match Array.sub and
   stay independent of the source (no aliasing through the Bigarray). *)
let prop_sub_roundtrip =
  QCheck.Test.make ~count:300 ~name:"sub/copy = Array.sub, no aliasing"
    QCheck.(triple (array small_signed_int) small_nat small_nat)
    (fun (a, p, l) ->
      let n = Array.length a in
      let pos = if n = 0 then 0 else p mod (n + 1) in
      let len = min l (n - pos) in
      let c = Int_col.of_array a in
      let s = Int_col.sub c ~pos ~len in
      let expected = Array.sub a pos len in
      let ok_slice = Int_col.to_array s = expected in
      let ok_independent =
        len = 0
        ||
        (Int_col.set s 0 max_int;
         Int_col.get c pos = a.(pos))
      in
      let d = Int_col.copy c in
      let ok_copy =
        Int_col.to_array d = a
        && (n = 0
           ||
           (Int_col.set d 0 min_int;
            Int_col.get c 0 = a.(0)))
      in
      ok_slice && ok_independent && ok_copy)

(* Sort + binary searches agree with the sorted-array reference for every
   probe, and set/unsafe_set write through to the same cell. *)
let prop_search_roundtrip =
  QCheck.Test.make ~count:300 ~name:"sort/first_ge/first_gt/mem_sorted = sorted array"
    QCheck.(pair (list small_signed_int) small_signed_int)
    (fun (values, key) ->
      let c = Int_col.of_list values in
      Int_col.sort c;
      let sorted = Array.of_list (List.sort compare values) in
      let count p = Array.fold_left (fun n v -> if p v then n + 1 else n) 0 sorted in
      Int_col.to_array c = sorted
      && Int_col.first_ge c key = count (fun v -> v < key)
      && Int_col.first_gt c key = count (fun v -> v <= key)
      && Int_col.mem_sorted c key = Array.exists (( = ) key) sorted)

let test_unsafe_set () =
  let c = Int_col.of_list [ 1; 2; 3 ] in
  Int_col.unsafe_set c 1 42;
  check_int "unsafe_set writes the cell" 42 (Int_col.get c 1);
  check_int "neighbours untouched" 1 (Int_col.get c 0);
  check_int "neighbours untouched" 3 (Int_col.get c 2)

let test_col_blit_edges () =
  (* len = 0 against an empty destination, then whole-column appends
     across capacity doublings from 1 *)
  let dst = Int_col.create ~capacity:1 () in
  let empty = Int_col.create () in
  Int_col.append_col dst empty ~pos:0 ~len:0;
  check_int "empty-into-empty is a no-op" 0 (Int_col.length dst);
  let src = Int_col.of_list [ 1; 2; 3; 4; 5 ] in
  Int_col.append_col dst src ~pos:0 ~len:(Int_col.length src);
  Int_col.append_col dst src ~pos:4 ~len:1;
  check_int_list "append_col" [ 1; 2; 3; 4; 5; 5 ] (Int_col.to_list dst);
  Int_col.append_col dst dst ~pos:0 ~len:0;
  check_int "self len-0 is a no-op" 6 (Int_col.length dst);
  Alcotest.check_raises "bad col slice"
    (Invalid_argument "Int_col.append_col: slice [4,7) out of bounds [0,5)") (fun () ->
      Int_col.append_col dst src ~pos:4 ~len:3);
  let wide = Int_col.of_list [ 0; 0; 0; 0; 0; 0; 0 ] in
  Int_col.blit_into_col dst wide ~dst_pos:1;
  check_int_list "blit_into_col" [ 0; 1; 2; 3; 4; 5; 5 ] (Int_col.to_list wide);
  Alcotest.check_raises "bad col blit"
    (Invalid_argument "Int_col.blit_into_col: [2,8) out of bounds [0,7)") (fun () ->
      Int_col.blit_into_col dst wide ~dst_pos:2)

(* ------------------------------------------------------------------ *)
(* Str_col and Dict                                                    *)
(* ------------------------------------------------------------------ *)

let test_str_col () =
  let c = Str_col.create ~capacity:1 () in
  check_int "idx a" 0 (Str_col.append c "a");
  check_int "idx b" 1 (Str_col.append c "b");
  Alcotest.(check string) "get" "b" (Str_col.get c 1);
  check_int "length" 2 (Str_col.length c);
  Alcotest.check_raises "oob" (Invalid_argument "Str_col.get: index 2 out of bounds [0,2)")
    (fun () -> ignore (Str_col.get c 2))

let test_dict () =
  let d = Dict.create () in
  let a = Dict.intern d "site" in
  let b = Dict.intern d "item" in
  let a' = Dict.intern d "site" in
  check_int "stable symbol" a a';
  check_bool "distinct" true (a <> b);
  Alcotest.(check string) "name" "site" (Dict.name d a);
  Alcotest.(check (option int)) "find_opt hit" (Some b) (Dict.find_opt d "item");
  Alcotest.(check (option int)) "find_opt miss" None (Dict.find_opt d "nope");
  check_int "size" 2 (Dict.size d);
  Alcotest.check_raises "bad symbol" (Invalid_argument "Dict.name: unknown symbol 7") (fun () ->
      ignore (Dict.name d 7))

let prop_dict_bijection =
  QCheck.Test.make ~count:200 ~name:"dict is a bijection on first-seen names"
    QCheck.(list (string_gen_of_size (Gen.return 3) Gen.printable))
    (fun names ->
      let d = Dict.create () in
      let syms = List.map (Dict.intern d) names in
      List.for_all2 (fun n s -> String.equal (Dict.name d s) n) names syms)

(* ------------------------------------------------------------------ *)
(* Bat                                                                 *)
(* ------------------------------------------------------------------ *)

let test_bat_void_head () =
  let tail = Int_col.of_list [ 9; 1; 0; 2 ] in
  let b = Bat.of_tail tail in
  check_int "count" 4 (Bat.count b);
  check_int "head 2" 2 (Bat.head b 2);
  check_int "tail 0" 9 (Bat.tail b 0)

let test_bat_reverse () =
  let b = Bat.of_tail (Int_col.of_list [ 10; 20 ]) in
  let r = Bat.reverse b in
  check_int "reversed head" 10 (Bat.head r 0);
  check_int "reversed tail" 1 (Bat.tail r 1)

let test_bat_slice_void () =
  let b = Bat.of_tail (Int_col.of_list [ 9; 1; 0; 2; 5 ]) in
  let s = Bat.slice b ~pos:2 ~len:2 in
  check_int "slice count" 2 (Bat.count s);
  (* the void head keeps absolute oids *)
  check_int "slice head" 2 (Bat.head s 0);
  check_int "slice tail" 0 (Bat.tail s 0)

let test_bat_select () =
  let b = Bat.of_tail (Int_col.of_list [ 9; 1; 0; 2; 5 ]) in
  let s = Bat.select b ~lo:1 ~hi:5 in
  let heads = ref [] in
  Bat.iter (fun h _ -> heads := h :: !heads) s;
  check_int_list "selected oids" [ 1; 3; 4 ] (List.rev !heads)

let test_bat_materialize () =
  let b = Bat.of_tail (Int_col.of_list [ 7; 8 ]) in
  let m = Bat.materialize_head b in
  check_int "same head values" (Bat.head b 1) (Bat.head m 1);
  match Bat.head_col m with
  | Bat.Ints _ -> ()
  | Bat.Void _ -> Alcotest.fail "head not materialized"

let test_bat_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Bat.make: tail column length mismatch") (fun () ->
      ignore (Bat.make ~head:(Bat.Void 0) ~tail:(Bat.Ints (Int_col.of_list [ 1 ])) ~count:2))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_model; prop_first_ge; prop_bulk_matches_pointwise; prop_col_blit;
      prop_sub_roundtrip; prop_search_roundtrip; prop_dict_bijection;
    ]

let () =
  Alcotest.run "scj_bat"
    [
      ( "int_col",
        [
          Alcotest.test_case "create empty" `Quick test_create_empty;
          Alcotest.test_case "append/get growth" `Quick test_append_get;
          Alcotest.test_case "set" `Quick test_set;
          Alcotest.test_case "bounds checks" `Quick test_bounds;
          Alcotest.test_case "of/to copies" `Quick test_of_to_roundtrip;
          Alcotest.test_case "sub" `Quick test_sub;
          Alcotest.test_case "clear and reuse" `Quick test_clear_reuse;
          Alcotest.test_case "sort and binary search" `Quick test_sort_and_search;
          Alcotest.test_case "fold/iteri" `Quick test_fold_iter;
          Alcotest.test_case "equal/copy" `Quick test_equal_copy;
          Alcotest.test_case "bulk appends and blit" `Quick test_bulk_ops;
          Alcotest.test_case "reserve" `Quick test_reserve;
          Alcotest.test_case "unsafe_set" `Quick test_unsafe_set;
          Alcotest.test_case "column-to-column blit edges" `Quick test_col_blit_edges;
        ] );
      ( "str_col+dict",
        [
          Alcotest.test_case "str_col basics" `Quick test_str_col;
          Alcotest.test_case "dict interning" `Quick test_dict;
        ] );
      ( "bat",
        [
          Alcotest.test_case "void head" `Quick test_bat_void_head;
          Alcotest.test_case "reverse" `Quick test_bat_reverse;
          Alcotest.test_case "slice keeps void offsets" `Quick test_bat_slice_void;
          Alcotest.test_case "select range" `Quick test_bat_select;
          Alcotest.test_case "materialize head" `Quick test_bat_materialize;
          Alcotest.test_case "length mismatch" `Quick test_bat_mismatch;
        ] );
      ("properties", qsuite);
    ]
