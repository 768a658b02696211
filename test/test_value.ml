open Helpers
module Value = Lineup_value.Value

let roundtrip v () =
  Alcotest.check value "roundtrip" v (Value.of_string (Value.to_string v))

let check_to_string expected v () =
  Alcotest.(check string) "to_string" expected (Value.to_string v)

let suite =
  [
    test "to_string int" (check_to_string "200" (Value.int 200));
    test "to_string negative int" (check_to_string "-5" (Value.int (-5)));
    test "to_string unit" (check_to_string "unit" Value.unit);
    test "to_string fail" (check_to_string "Fail" Value.Fail);
    test "to_string bool" (check_to_string "true" (Value.bool true));
    test "to_string pair" (check_to_string "(1, 2)" (Value.pair (Value.int 1) (Value.int 2)));
    test "to_string list" (check_to_string "[1; 2]" (Value.list [ Value.int 1; Value.int 2 ]));
    test "to_string empty list" (check_to_string "[]" (Value.list []));
    test "to_string option" (check_to_string "Some 3" (Value.some (Value.int 3)));
    test "to_string none" (check_to_string "None" Value.none);
    test "to_string string quoted" (check_to_string {|"hi"|} (Value.str "hi"));
    test "roundtrip int" (roundtrip (Value.int 42));
    test "roundtrip nested"
      (roundtrip
         (Value.pair
            (Value.list [ Value.int 1; Value.Fail; Value.some (Value.bool false) ])
            (Value.str "x \"quoted\" y")));
    test "roundtrip string with newline" (roundtrip (Value.str "a\nb\tc"));
    test "of_string rejects garbage" (fun () ->
        Alcotest.check_raises "garbage" (Invalid_argument "Value.of_string: unrecognized value at position 0 in \"zzz\"")
          (fun () -> ignore (Value.of_string "zzz")));
    test "of_string rejects a bare sign and an int out of range" (fun () ->
        List.iter
          (fun s ->
            match Value.of_string s with
            | exception Invalid_argument _ -> ()
            | v -> Alcotest.failf "%S: expected failure, got %a" s Value.pp v)
          [
            "-"; "99999999999999999999"; "-4611686018427387905"; "(1, -)"; "[4611686018427387904]";
          ]);
    test "of_string rejects trailing" (fun () ->
        match Value.of_string "1 2" with
        | exception Invalid_argument _ -> ()
        | v -> Alcotest.failf "expected failure, got %a" Value.pp v);
    test "equal distinguishes constructors" (fun () ->
        Alcotest.(check bool) "unit<>fail" false (Value.equal Value.Unit Value.Fail);
        Alcotest.(check bool) "0<>false" false (Value.equal (Value.int 0) (Value.bool false)));
    test "compare total order on constructors" (fun () ->
        Alcotest.(check bool) "unit < bool" true (Value.compare Value.Unit (Value.bool false) < 0);
        Alcotest.(check int) "refl" 0 (Value.compare Value.Fail Value.Fail));
    test "get_int" (fun () ->
        Alcotest.(check int) "get_int" 7 (Value.get_int (Value.int 7));
        Alcotest.check_raises "get_int fail" (Invalid_argument "Value.get_int: Fail") (fun () ->
            ignore (Value.get_int Value.Fail)));
    test "is_fail" (fun () ->
        Alcotest.(check bool) "fail" true (Value.is_fail Value.Fail);
        Alcotest.(check bool) "int" false (Value.is_fail (Value.int 1)));
  ]

let props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"value print/parse roundtrip" ~count:500 value_arb (fun v ->
           Value.equal v (Value.of_string (Value.to_string v))));
    QCheck_alcotest.to_alcotest
      (let ints = QCheck.Gen.(map Value.int (oneof [ oneofl [ min_int; max_int; 0 ]; int ])) in
       let any = QCheck.Gen.(frequency [ 3, value_gen; 1, ints; 1, map2 Value.pair ints value_gen ]) in
       QCheck.Test.make ~name:"to_string writes what pp prints, scalars and min_int/max_int too"
         ~count:500 (QCheck.make ~print:Value.to_string any) (fun v ->
           Value.to_string v = Fmt.str "%a" Value.pp v));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"value equal agrees with compare" ~count:500
         (QCheck.pair value_arb value_arb) (fun (v1, v2) ->
           Value.equal v1 v2 = (Value.compare v1 v2 = 0)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"equal values have equal hashes" ~count:500 value_arb (fun v ->
           Value.hash v = Value.hash (Value.of_string (Value.to_string v))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"compare is antisymmetric" ~count:500
         (QCheck.pair value_arb value_arb) (fun (v1, v2) ->
           let c12 = Value.compare v1 v2 and c21 = Value.compare v2 v1 in
           (c12 = 0 && c21 = 0) || c12 * c21 < 0));
  ]

let value_bytes =
  [ '('; ')'; ','; ';'; '['; ']'; '"'; '\\'; ' '; '-'; '0'; '9'; 'S'; 'N'; 'F'; 'u' ]

let fuzz =
  let open QCheck.Gen in
  [
    decoder_total ~name:"Value.of_string raises only Invalid_argument" ~count:2000
      (oneof
         [
           map Value.to_string value_gen >>= mutations_gen ~alphabet:value_bytes;
           string_size ~gen:(oneofl value_bytes) (int_bound 12);
           map (fun n -> String.make n '9') (int_range 18 22);
         ])
      Value.of_string;
  ]

let tests = suite @ props @ fuzz
