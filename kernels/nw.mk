// nw — 33 nodes; one of the 17 suite kernels (monomap_frontend::suite).
// Its canonical digest is pinned in tests/frontend_corpus.rs.
kernel nw {
  i32[] mem;
  i32 n0 = in(0);
  i32 n1 = in(1);
  i32 n2 = 49;
  rec i32 n3 = 1;
  i32 n7 = in(2);
  rec i32 n18 = 0;
  i32 n21 = 240;
  i32 n32 = in(3);
  i32 n4 = min(n3, n3);
  n3 = n4 @ 1;
  i32 n19 = select(n18, n18, n18);
  i32 n5 = n2 == n4;
  i32 n6 = abs(n4);
  i32 n20 = max(n19, n19);
  i32 n9 = abs(n5);
  i32 n10 = n5 - n5;
  i32 n8 = min(n6, n7);
  i32 n12 = -n6;
  i32 n11 = mem[n10];
  i32 n13 = max(n12, n12);
  out(n12);
  i32 n14 = min(n10, n13);
  i32 n15 = n13 < n13;
  n18 = n15 @ 1;
  i32 n22 = min(n14, n21);
  i32 n16 = min(n15, n14);
  i32 n23 = select(n20, n22, n20);
  i32 n24 = n23 < n23;
  i32 n25 = out(n24);
  i32 n26 = n25 - n25;
  mem[n25] = n24;
  i32 n27 = min(n26, n23);
  i32 n29 = mem[n27];
  i32 n30 = min(n29, n26);
  out(n30);
}
